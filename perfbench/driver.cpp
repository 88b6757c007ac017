// perfbench_driver — the in-process half of the end-to-end benchmark
// (perfbench/run.py is the other half and the entry point).
//
//   perfbench_driver env
//       Build facts as one JSON line; exits 1 for a non-Release build.
//   perfbench_driver gen-large <target_gates> <seed> <out.blif>
//       Write one gen-profile circuit (src/gen/large) as BLIF.
//   perfbench_driver gen-suite <dir> <circuit>...
//       Write built-in Table-1 circuits as <dir>/<circuit>.blif.
//   perfbench_driver flow --in F [--in F ...] --out-dir D --mode gsg|gsg+gs
//          --threads N --seed S [--iters N] [--paranoid] --seconds T [--traced]
//       Run the flow of `rapids flow` on every input, pass after pass, until
//       the first pass and T seconds are done. One JSON line per flow. --traced
//       alternates each untraced flow with a staged one that calls every
//       layer's public function itself and times one span per call.
//   perfbench_driver check <pairs.txt> <vectors> <seed>
//       Compare each "<reference.blif> <candidate.blif>" line with the
//       benchmark's own SOP simulator; one "ok"/"FAIL" line per pair.
#include <sys/resource.h>

#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "flow/flow.hpp"
#include "gen/large.hpp"
#include "gen/suite.hpp"
#include "io/blif_reader.hpp"
#include "io/blif_writer.hpp"
#include "library/cell_library.hpp"
#include "mapping/mapper.hpp"
#include "place/placer.hpp"
#include "host_probe.hpp"
#include "sop_check.hpp"
#include "timing/sta.hpp"
#include "trace/metrics.hpp"
#include "util/timer.hpp"
#include "verify/equivalence.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#error "perfbench must not be built with sanitizers"
#endif

namespace {

using namespace rapids;

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

/// Minimal JSON object writer for flat records.
class Record {
 public:
  Record() { os_.precision(17); }

  Record& num(const char* key, double v) {
    sep();
    os_ << '"' << key << "\":" << v;
    return *this;
  }
  Record& str(const char* key, const std::string& v) {
    sep();
    os_ << '"' << key << "\":\"" << v << '"';
    return *this;
  }
  Record& raw(const char* key, const std::string& json) {
    sep();
    os_ << '"' << key << "\":" << json;
    return *this;
  }
  std::string done() const { return os_.str() + "}"; }

 private:
  void sep() {
    os_ << (first_ ? "{" : ",");
    first_ = false;
  }
  std::ostringstream os_;
  bool first_ = true;
};

struct FlowConfig {
  OptMode mode = OptMode::GsgPlusGS;
  FlowOptions options;
};

/// The run's counters and gauges under the standard metric names
/// (collect_flow_metrics), as one JSON line.
std::string metrics_json(const OptimizerResult& result) {
  MetricsRegistry reg;
  collect_flow_metrics(reg, result);
  std::ostringstream os;
  os.precision(17);
  reg.write_json(os);
  std::string json = os.str();
  for (char& ch : json) {
    if (ch == '\n') ch = ' ';
  }
  return json;
}

/// The `rapids flow` path through the public flow API (tools/rapids_cli.cpp
/// cmd_flow): read_blif_file -> prepare_circuit -> run_mode(&&) ->
/// write_blif_file. Timed from outside each call.
void untraced_flow(const std::string& in, const std::string& out, const CellLibrary& lib,
                   const FlowConfig& cfg, Record& rec) {
  const Timer timer;
  const Network src = read_blif_file(in);
  PreparedCircuit prepared = prepare_circuit(in, src, lib, cfg.options);
  const double setup_s = timer.seconds();
  const std::size_t cells = prepared.mapped.num_logic_gates();
  const ModeRun run = run_mode(std::move(prepared), lib, cfg.mode, cfg.options);
  write_blif_file(run.optimized, out, in);
  const double flow_s = timer.seconds();
  rec.num("flow_s", flow_s)
      .num("setup_s", setup_s)
      .num("cells", static_cast<double>(cells))
      .num("verified", run.verified ? 1 : 0)
      .raw("metrics", metrics_json(run.result));
}

/// The same flow with each layer's public function called separately, in
/// prepare_circuit / run_mode order. Each call has its own timer (one span
/// per call); an outer timer gives flow_s, so the harness can check that
/// the spans account for the flow. Must write the same bytes as
/// untraced_flow (the harness compares them).
void traced_flow(const std::string& in, const std::string& out, const CellLibrary& lib,
                 const FlowConfig& cfg, Record& rec) {
  const FlowOptions& options = cfg.options;
  Record spans;
  const Timer outer;
  auto timed = [](auto&& call) {
    const Timer t;
    call();
    return t.seconds();
  };

  Network src;
  spans.num("read", timed([&] { src = read_blif_file(in); }));
  Network mapped;
  spans.num("map", timed([&] { mapped = map_network(src, lib).mapped; }));
  const std::size_t cells = mapped.num_logic_gates();
  PlacerOptions popt = options.placer;
  if (cells > options.reduce_effort_above && options.reduce_effort_above > 0) {
    popt.effort = popt.effort * static_cast<double>(options.reduce_effort_above) /
                  static_cast<double>(cells);
  }
  Placement placement;
  spans.num("place", timed([&] { placement = place(mapped, lib, popt); }));
  // prepare_circuit's initial STA and area bookkeeping.
  spans.num("initial_sta", timed([&] {
    double initial_area = 0.0;
    static_cast<void>(Sta(mapped, lib, placement).critical_delay());
    mapped.for_each_gate([&](GateId g) {
      const std::int32_t c = mapped.cell(g);
      if (c >= 0 && is_logic(mapped.type(g))) initial_area += lib.cell(c).area;
    });
  }));
  const double setup_s = outer.seconds();

  // run_mode(&&): the reference clone exists only for verification, so it
  // is counted in the verify span.
  Network reference;
  const double clone_s = timed([&] { reference = mapped.clone(); });
  ModeRun run;
  run.optimized = std::move(mapped);
  double cpu_s = 0.0;
  spans.num("optimize", timed([&] {
    const double cpu0 = cpu_seconds();
    Sta sta(run.optimized, lib, placement);
    OptimizerOptions oopt = options.opt;
    oopt.mode = cfg.mode;
    oopt.sta_is_fresh = true;
    if (oopt.seed == OptimizerOptions{}.seed) oopt.seed = options.placer.seed;
    run.result = optimize(run.optimized, placement, lib, sta, oopt);
    cpu_s = cpu_seconds() - cpu0;
  }));
  spans.num("verify", clone_s + timed([&] {
    EquivalenceOptions eopt;
    eopt.sat_proof = options.verify_sat;
    run.verified = check_equivalence(reference, run.optimized, eopt).equivalent;
  }));
  spans.num("write", timed([&] { write_blif_file(run.optimized, out, in); }));
  const double flow_s = outer.seconds();

  rec.num("flow_s", flow_s)
      .num("setup_s", setup_s)
      .num("cells", static_cast<double>(cells))
      .num("verified", run.verified ? 1 : 0)
      .num("cpu_s", cpu_s)
      .raw("spans", spans.done())
      .raw("metrics", metrics_json(run.result));
}

#ifdef NDEBUG
constexpr bool kOptimizedBuild = true;
#else
constexpr bool kOptimizedBuild = false;
#endif

int cmd_env() {
  Record rec;
  rec.str("build_type", kOptimizedBuild ? "Release" : "assertions-on");
#ifdef __clang__
  rec.str("compiler", "clang " __VERSION__);
#else
  rec.str("compiler", "gcc " __VERSION__);
#endif
  std::cout << rec.done() << "\n";
  return kOptimizedBuild ? 0 : 1;
}

int cmd_flow(const std::vector<std::string>& args) {
  std::vector<std::string> inputs;
  std::string out_dir;
  FlowConfig cfg;
  double seconds = 0.0;
  bool traced = false;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    auto next = [&]() -> const std::string& {
      if (i + 1 >= args.size()) throw InputError("missing value after " + a);
      return args[++i];
    };
    if (a == "--in") {
      inputs.push_back(next());
    } else if (a == "--out-dir") {
      out_dir = next();
    } else if (a == "--mode") {
      const std::string& m = next();
      if (m != "gsg" && m != "gsg+gs") throw InputError("unknown mode " + m);
      cfg.mode = m == "gsg" ? OptMode::Gsg : OptMode::GsgPlusGS;
    } else if (a == "--threads") {
      cfg.options.opt.threads = std::stoi(next());
    } else if (a == "--seed") {
      cfg.options.placer.seed = std::stoull(next());
    } else if (a == "--iters") {
      cfg.options.opt.max_iterations = std::stoi(next());
    } else if (a == "--paranoid") {
      cfg.options.opt.paranoid = true;
    } else if (a == "--seconds") {
      seconds = std::stod(next());
    } else if (a == "--traced") {
      traced = true;
    } else {
      throw InputError("unknown flow flag " + a);
    }
  }
  if (inputs.empty() || out_dir.empty()) throw InputError("flow: --in and --out-dir required");

  const CellLibrary lib = builtin_library_035();
  perfbench::HostProbe probe;
  const Timer clock;
  // The clock is checked before every flow after the first pass, so a run
  // ends within one flow of `seconds`.
  for (int pass = 0; pass == 0 || clock.seconds() < seconds; ++pass) {
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      if (pass > 0 && clock.seconds() >= seconds) break;
      const std::string stem = out_dir + "/out_" + std::to_string(i) + "_" + std::to_string(pass);
      // Alternate which variant goes first so drift does not bias the
      // traced-vs-untraced overhead.
      for (int k = 0; k < (traced ? 2 : 1); ++k) {
        const bool staged = traced && ((pass + static_cast<int>(i) + k) % 2 == 1);
        const std::string out = stem + (staged ? "_t.blif" : "_u.blif");
        Record rec;
        rec.num("input", static_cast<double>(i))
            .num("pass", pass)
            .num("traced", staged ? 1 : 0)
            .str("out", out)
            .num("probe_s", probe.sample());
        if (staged) {
          traced_flow(inputs[i], out, lib, cfg, rec);
        } else {
          untraced_flow(inputs[i], out, lib, cfg, rec);
        }
        std::cout << rec.done() << std::endl;
      }
    }
  }
  Record done;
  done.str("kind", "done").num("peak_rss_mb", peak_rss_mb());
  std::cout << done.done() << "\n";
  return 0;
}

int cmd_check(const std::vector<std::string>& args) {
  if (args.size() != 3) throw InputError("check: expected <pairs.txt> <vectors> <seed>");
  std::ifstream is(args[0]);
  if (!is) throw InputError("cannot read " + args[0]);
  const std::uint64_t vectors = std::stoull(args[1]);
  const std::uint64_t seed = std::stoull(args[2]);
  int failed = 0;
  for (std::string ref, cand; is >> ref >> cand;) {
    const perfbench::SopCheckResult r = perfbench::check_blif_pair(ref, cand, vectors, seed);
    std::cout << (r.equivalent ? "ok " : "FAIL ") << cand << " " << r.vectors << " "
              << r.message << "\n";
    if (!r.equivalent) ++failed;
  }
  return failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> all(argv + 1, argv + argc);
  try {
    if (all.empty()) throw InputError("usage: perfbench_driver env|gen-large|gen-suite|flow|check");
    const std::string& cmd = all[0];
    const std::vector<std::string> args(all.begin() + 1, all.end());
    if (cmd == "env") return cmd_env();
    if (cmd == "gen-large" && args.size() == 3) {
      LargeCircuitOptions lopt;
      lopt.target_gates = std::stoull(args[0]);
      lopt.seed = std::stoull(args[1]);
      write_blif_file(make_large_circuit(lopt), args[2], "gen" + args[0] + "_" + args[1]);
      return 0;
    }
    if (cmd == "gen-suite" && args.size() >= 2) {
      for (std::size_t i = 1; i < args.size(); ++i) {
        write_blif_file(make_benchmark(args[i]), args[0] + "/" + args[i] + ".blif", args[i]);
      }
      return 0;
    }
    if (cmd == "flow") return cmd_flow(args);
    if (cmd == "check") return cmd_check(args);
    if (cmd == "probe" && args.size() == 1) {
      perfbench::HostProbe probe;
      const int n = std::stoi(args[0]);
      std::cout.precision(17);
      for (int i = 0; i < n; ++i) std::cout << probe.sample() << "\n";
      return 0;
    }
    throw InputError("unknown or malformed command: " + cmd);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_driver: " << e.what() << "\n";
    return 1;
  }
}
