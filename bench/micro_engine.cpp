// Engine regression gauge: probe / commit throughput of the transactional
// rewiring path, per circuit, emitted as machine-readable JSON so the perf
// trajectory is tracked across PRs ("very computationally efficient", §1).
//
// One probe  = evaluate one swap candidate against the incremental STA and
//              roll the network and timing state back exactly.
// One commit = apply a swap candidate and keep it (the matching measurement
//              commits each swap and then commits its exact inverse, so the
//              circuit is back in its initial state when the clock stops).
// One placer move = one annealing move of place() at default PlacerOptions
//              (the flow's placer); the rate divides the moves of whole
//              place() calls (die sizing, seed, annealing, legalization)
//              by their wall time. "place_hpwl" is the total HPWL of that
//              placement: deterministic, so any placer change that moves a
//              single coordinate shows in it.
//
// Usage: micro_engine [--out BENCH_engine.json] [--circuits a,b,c]
//                     [--min-time SECONDS] [--baseline FILE] [--threads N]
//   --baseline merges "probes_per_sec" and "place_moves_per_sec" of a
//   previous run into the report as "baseline_probes_per_sec" and
//   "baseline_place_moves_per_sec" (measure the baseline build in the same
//   session, on the same host).
//   --threads N additionally measures the parallel scheduler's probe
//   throughput at N workers over the same candidates, so the report records
//   serial and parallel throughput against the same baseline (N=0 skips;
//   default 2). bench/parallel_scaling sweeps thread counts in depth.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "engine/rewire_engine.hpp"
#include "gen/suite.hpp"
#include "library/cell_library.hpp"
#include "mapping/mapper.hpp"
#include "parallel/scheduler.hpp"
#include "session/session.hpp"
#include "place/placer.hpp"
#include "place/wirelength.hpp"
#include "sym/gisg.hpp"
#include "sym/symmetry.hpp"
#include "timing/sta.hpp"
#include "util/timer.hpp"

namespace {

using namespace rapids;

struct CircuitReport {
  std::string name;
  std::size_t cells = 0;
  std::size_t candidates = 0;
  double probes_per_sec = 0.0;
  double commits_per_sec = 0.0;
  double parallel_probes_per_sec = 0.0;
  int parallel_threads = 0;
  double place_moves_per_sec = 0.0;
  double place_hpwl = 0.0;
};

/// Annealing moves of one place() call: num_temps * moves per temperature,
/// where moves per temperature = max(64, effort * row cells).
double placer_moves(const Network& net, const PlacerOptions& popt) {
  std::size_t cells = 0;
  net.for_each_gate([&](GateId g) {
    const GateType t = net.type(g);
    if (is_logic(t) || t == GateType::Const0 || t == GateType::Const1) ++cells;
  });
  const int per_temp =
      std::max(64, static_cast<int>(popt.effort * static_cast<double>(cells)));
  return static_cast<double>(popt.num_temps) * per_temp;
}

CircuitReport measure(const std::string& name, const CellLibrary& lib,
                      double min_time, int threads) {
  CircuitReport rep;
  rep.name = name;

  Network net = map_network(make_benchmark(name), lib).mapped;
  PlacerOptions popt;
  popt.effort = 2.0;
  popt.num_temps = 8;
  Placement pl = place(net, lib, popt);
  Sta sta(net, lib, pl);
  RewireEngine engine(net, pl, lib, sta);

  rep.cells = net.num_logic_gates();

  // Placer throughput at the flow's default options.
  {
    const PlacerOptions flow_popt;
    rep.place_hpwl = total_hpwl(net, place(net, lib, flow_popt));
    Timer t;
    std::size_t calls = 0;
    do {
      place(net, lib, flow_popt);
      ++calls;
    } while (t.seconds() < min_time);
    rep.place_moves_per_sec =
        static_cast<double>(calls) * placer_moves(net, flow_popt) / t.seconds();
  }
  const std::vector<SwapCandidate> swaps = enumerate_all_swaps(engine.partition(), net);
  rep.candidates = swaps.size();
  if (swaps.empty()) return rep;

  // Probe throughput: evaluate-and-rollback over the candidate list.
  {
    Timer t;
    std::size_t probes = 0, i = 0;
    do {
      engine.probe(EngineMove::swap(swaps[i++ % swaps.size()]));
      ++probes;
    } while (t.seconds() < min_time);
    rep.probes_per_sec = static_cast<double>(probes) / t.seconds();
  }

  // Commit throughput: commit each candidate, then commit its exact undo.
  // Re-extraction is not needed because the state returns to the baseline
  // after every pair (the stale-candidate contract stays satisfied).
  {
    Timer t;
    std::size_t commits = 0, i = 0;
    do {
      engine.commit_and_revert(EngineMove::swap(swaps[i++ % swaps.size()]));
      commits += 2;
    } while (t.seconds() < min_time);
    rep.commits_per_sec = static_cast<double>(commits) / t.seconds();
  }

  // Parallel probe throughput: the same candidates, one group per
  // supergate, through the conflict-sharded scheduler at `threads` workers.
  if (threads > 0) {
    std::vector<std::vector<EngineMove>> by_sg(engine.partition().sgs.size());
    for (const SwapCandidate& c : swaps) {
      by_sg[static_cast<std::size_t>(c.sg_index)].push_back(EngineMove::swap(c));
    }
    std::erase_if(by_sg, [](const std::vector<EngineMove>& g) { return g.empty(); });
    const std::vector<ProbeGroup> groups(by_sg.begin(), by_sg.end());
    SessionContext session("default");
    SchedulerOptions sopt;
    sopt.threads = threads;
    ParallelRewireScheduler sched(engine, session, sopt);
    Timer t;
    const std::uint64_t before = sched.stats().worker_probes;
    do {
      sched.probe_round(groups, ProbePolicy::MinCritical, 1e-6);
    } while (t.seconds() < min_time);
    rep.parallel_probes_per_sec =
        static_cast<double>(sched.stats().worker_probes - before) / t.seconds();
    rep.parallel_threads = threads;
  }
  return rep;
}

/// Extract the `"<field>": <num>` value of a previous report's circuit
/// line, keyed by its leading `"name": "<circuit>"`. Tiny fixed-shape scan,
/// not a JSON parser; good enough for our own one-line-per-circuit output.
double parse_field(const std::string& text, const std::string& circuit,
                   const std::string& field) {
  const std::string key = "\"name\": \"" + circuit + "\"";
  const std::size_t begin = text.find(key);
  if (begin == std::string::npos) return 0.0;
  const std::size_t end = text.find('\n', begin);
  const std::string pattern = ", \"" + field + "\": ";
  const std::size_t at = text.find(pattern, begin);
  if (at == std::string::npos || at > end) return 0.0;
  return std::strtod(text.c_str() + at + pattern.size(), nullptr);
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_engine.json";
  std::string baseline_path;
  std::vector<std::string> circuits = {"alu2", "alu4", "c432", "c1908"};
  double min_time = 1.0;
  int threads = 2;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "missing value after " << a << "\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--out") {
      out_path = next();
    } else if (a == "--baseline") {
      baseline_path = next();
    } else if (a == "--min-time") {
      const std::string v = next();
      char* end = nullptr;
      min_time = std::strtod(v.c_str(), &end);
      if (end == v.c_str() || *end != '\0' || min_time <= 0.0) {
        std::cerr << "invalid --min-time value: " << v << "\n";
        return 2;
      }
    } else if (a == "--circuits") {
      circuits.clear();
      std::stringstream ss(next());
      std::string tok;
      while (std::getline(ss, tok, ',')) circuits.push_back(tok);
    } else if (a == "--threads") {
      threads = std::stoi(next());
      if (threads < 0) {
        std::cerr << "invalid --threads value\n";
        return 2;
      }
    } else {
      std::cerr << "usage: micro_engine [--out FILE] [--circuits a,b,c]"
                   " [--min-time SECONDS] [--baseline FILE] [--threads N]\n";
      return 2;
    }
  }

  std::string baseline_text;
  if (!baseline_path.empty()) {
    std::ifstream in(baseline_path);
    if (!in) {
      std::cerr << "error: cannot open baseline file " << baseline_path << "\n";
      return 2;
    }
    std::stringstream ss;
    ss << in.rdbuf();
    baseline_text = ss.str();
  }

  const CellLibrary lib = builtin_library_035();
  std::vector<CircuitReport> reports;
  for (const std::string& name : circuits) {
    std::cerr << "[micro_engine] " << name << "\n";
    try {
      reports.push_back(measure(name, lib, min_time, threads));
    } catch (const std::exception& e) {
      std::cerr << "error: " << e.what() << "\n";
      return 1;
    }
  }

  std::ostringstream json;
  json << "{\n  \"bench\": \"micro_engine\",\n  \"unit\": \"ops/sec\",\n"
       << "  \"hardware_threads\": " << std::thread::hardware_concurrency() << ",\n"
       << "  \"circuits\": [\n";
  double geo_probe = 1.0, geo_ratio = 1.0, geo_place_ratio = 1.0;
  int n_ratio = 0, n_probe = 0, n_place_ratio = 0;
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const CircuitReport& r = reports[i];
    json << "    {\"name\": \"" << r.name << "\", \"cells\": " << r.cells
         << ", \"candidates\": " << r.candidates << ", \"probes_per_sec\": "
         << static_cast<long long>(r.probes_per_sec) << ", \"commits_per_sec\": "
         << static_cast<long long>(r.commits_per_sec);
    if (r.parallel_threads > 0) {
      json << ", \"parallel_threads\": " << r.parallel_threads
           << ", \"parallel_probes_per_sec\": "
           << static_cast<long long>(r.parallel_probes_per_sec);
      if (r.probes_per_sec > 0) {
        json << ", \"parallel_speedup\": "
             << r.parallel_probes_per_sec / r.probes_per_sec;
      }
    }
    json << ", \"place_moves_per_sec\": " << static_cast<long long>(r.place_moves_per_sec)
         << ", \"place_hpwl\": " << std::setprecision(17) << r.place_hpwl
         << std::setprecision(6);
    if (!baseline_text.empty()) {
      const double base = parse_field(baseline_text, r.name, "probes_per_sec");
      if (base > 0.0) {
        json << ", \"baseline_probes_per_sec\": " << static_cast<long long>(base)
             << ", \"speedup\": " << r.probes_per_sec / base;
        geo_ratio *= r.probes_per_sec / base;
        ++n_ratio;
      }
      const double place_base = parse_field(baseline_text, r.name, "place_moves_per_sec");
      if (place_base > 0.0) {
        json << ", \"baseline_place_moves_per_sec\": "
             << static_cast<long long>(place_base)
             << ", \"place_speedup\": " << r.place_moves_per_sec / place_base;
        geo_place_ratio *= r.place_moves_per_sec / place_base;
        ++n_place_ratio;
      }
    }
    json << "}" << (i + 1 < reports.size() ? "," : "") << "\n";
    if (r.probes_per_sec > 0) {
      geo_probe *= r.probes_per_sec;
      ++n_probe;
    } else {
      std::cerr << "note: " << r.name
                << " had zero probe throughput; excluded from geomean\n";
    }
  }
  json << "  ],\n  \"geomean_probes_per_sec\": "
       << static_cast<long long>(n_probe > 0 ? std::pow(geo_probe, 1.0 / n_probe) : 0);
  if (n_ratio > 0) {
    json << ",\n  \"geomean_speedup\": " << std::pow(geo_ratio, 1.0 / n_ratio);
  }
  if (n_place_ratio > 0) {
    json << ",\n  \"geomean_place_speedup\": "
         << std::pow(geo_place_ratio, 1.0 / n_place_ratio);
  }
  json << "\n}\n";

  std::ofstream out(out_path);
  out << json.str();
  out.flush();
  std::cout << json.str();
  if (!out) {
    std::cerr << "error: failed to write " << out_path << "\n";
    return 1;
  }
  std::cerr << "wrote " << out_path << "\n";
  return 0;
}
