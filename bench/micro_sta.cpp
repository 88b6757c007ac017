// Timing-kernel gauge: the cost of the incremental STA that every probe
// runs, per circuit, emitted as machine-readable JSON.
//
// The script is every swap candidate of the initial partition (one group
// per supergate) plus a resize to every drive variant of every third logic
// gate (one group per gate).
//
// probe      = one move of a MinCritical round over the script through a
//              one-worker scheduler at min gain 1e-6: the optimizer's
//              phase-A path, margin refresh, critical-path pruning and
//              bounded probes included. "gates_per_probe" is its queue
//              pops per probe.
// full probe = RewireEngine::probe() of one script move: always propagates.
//              "gates_per_full_probe" is its queue pops per probe.
// Both pop counts are deterministic, so CI holds them exact.
// ns_per_probe / ns_per_full_probe = wall time of whole script passes /
//              probes; ns_per_gate = full-probe wall time / gates popped.
// ns_per_rebuild_net = one invalidate_net() plus its share of the
//              rollback, over every driven net inside one transaction.
//
// Usage: micro_sta [--out BENCH_sta.json] [--circuits a,b,c]
//                  [--min-time SECONDS] [--baseline FILE]
//   --baseline merges the pop counts and ns figures of a previous run as
//   "baseline_*" fields plus "probe_speedup" and "full_probe_speedup"
//   (measure the baseline build in the same session, on the same host).
#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "engine/rewire_engine.hpp"
#include "gen/large.hpp"
#include "gen/suite.hpp"
#include "library/cell_library.hpp"
#include "mapping/mapper.hpp"
#include "parallel/scheduler.hpp"
#include "place/placer.hpp"
#include "session/session.hpp"
#include "sizing/sizing.hpp"
#include "sym/symmetry.hpp"
#include "timing/sta.hpp"
#include "util/timer.hpp"

namespace {

using namespace rapids;

struct CircuitReport {
  std::string name;
  std::size_t cells = 0;
  std::size_t script_probes = 0;
  double gates_per_probe = 0.0;
  double ns_per_probe = 0.0;
  double gates_per_full_probe = 0.0;
  double ns_per_full_probe = 0.0;
  double ns_per_gate = 0.0;
  double ns_per_rebuild_net = 0.0;
};

Network make_circuit(const std::string& name, const CellLibrary& lib) {
  if (name.rfind("gen:", 0) == 0) {
    LargeCircuitOptions lopt;
    lopt.target_gates = std::stoi(name.substr(4));
    return map_network(make_large_circuit(lopt), lib).mapped;
  }
  return map_network(make_benchmark(name), lib).mapped;
}

CircuitReport measure(const std::string& name, const CellLibrary& lib,
                      double min_time) {
  CircuitReport rep;
  rep.name = name;
  Network net = make_circuit(name, lib);
  PlacerOptions popt;
  popt.effort = 2.0;
  popt.num_temps = 8;
  Placement pl = place(net, lib, popt);
  Sta sta(net, lib, pl);
  RewireEngine engine(net, pl, lib, sta);
  rep.cells = net.num_logic_gates();

  std::vector<std::vector<EngineMove>> lists;
  {
    const GisgPartition& part = engine.partition();
    std::vector<std::vector<EngineMove>> by_sg(part.sgs.size());
    for (const SwapCandidate& c : enumerate_all_swaps(part, net)) {
      by_sg[static_cast<std::size_t>(c.sg_index)].push_back(EngineMove::swap(c));
    }
    for (std::vector<EngineMove>& g : by_sg) {
      if (!g.empty()) lists.push_back(std::move(g));
    }
  }
  std::vector<GateId> logic;
  net.for_each_gate([&](GateId g) {
    if (is_logic(net.type(g)) && net.cell(g) >= 0) logic.push_back(g);
  });
  for (std::size_t i = 0; i < logic.size(); i += 3) {
    std::vector<EngineMove> group;
    for (const int c : resize_candidates(net, lib, logic[i])) {
      group.push_back(EngineMove::resize(logic[i], c));
    }
    if (!group.empty()) lists.push_back(std::move(group));
  }
  const std::vector<ProbeGroup> groups(lists.begin(), lists.end());
  std::vector<EngineMove> script;
  for (const ProbeGroup g : groups) {
    script.insert(script.end(), g.begin(), g.end());
  }
  rep.script_probes = script.size();
  if (script.empty()) return rep;
  const double probes = static_cast<double>(script.size());

  {
    SessionContext session("default");
    SchedulerOptions sopt;
    sopt.threads = 1;
    ParallelRewireScheduler sched(engine, session, sopt);
    // One untimed round fixes the deterministic pop count (it also
    // refreshes the damping margins every later round reuses).
    const std::uint64_t g0 = sta.gates_propagated();
    sched.probe_round(groups, ProbePolicy::MinCritical, 1e-6);
    rep.gates_per_probe = static_cast<double>(sta.gates_propagated() - g0) / probes;
    std::size_t rounds = 0;
    const Timer t;
    do {
      sched.probe_round(groups, ProbePolicy::MinCritical, 1e-6);
      ++rounds;
    } while (t.seconds() < min_time);
    rep.ns_per_probe = t.seconds() * 1e9 / (static_cast<double>(rounds) * probes);
  }

  {
    const std::uint64_t g0 = sta.gates_propagated();
    for (const EngineMove& m : script) engine.probe(m);
    rep.gates_per_full_probe =
        static_cast<double>(sta.gates_propagated() - g0) / probes;
    std::size_t passes = 0;
    const std::uint64_t before = sta.gates_propagated();
    const Timer t;
    do {
      for (const EngineMove& m : script) engine.probe(m);
      ++passes;
    } while (t.seconds() < min_time);
    const double ns = t.seconds() * 1e9;
    rep.ns_per_full_probe = ns / (static_cast<double>(passes) * probes);
    const std::uint64_t gates = sta.gates_propagated() - before;
    if (gates > 0) rep.ns_per_gate = ns / static_cast<double>(gates);
  }

  std::vector<GateId> drivers;
  net.for_each_gate([&](GateId g) {
    if (net.fanout_count(g) > 0) drivers.push_back(g);
  });
  if (!drivers.empty()) {
    std::size_t rebuilds = 0;
    const Timer t;
    do {
      sta.begin();
      for (const GateId d : drivers) sta.invalidate_net(d);
      sta.rollback();
      rebuilds += drivers.size();
    } while (t.seconds() < min_time);
    rep.ns_per_rebuild_net = t.seconds() * 1e9 / static_cast<double>(rebuilds);
  }
  return rep;
}

/// Extract the `"<field>": <num>` value of a previous report's circuit
/// line, keyed by its leading `"name": "<circuit>"` (our own
/// one-line-per-circuit output; not a JSON parser).
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
  std::string out_path = "BENCH_sta.json";
  std::string baseline_path;
  std::vector<std::string> circuits = {"c432", "c6288", "gen:3000"};
  double min_time = 1.0;
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
    } else {
      std::cerr << "usage: micro_sta [--out FILE] [--circuits a,b,c]"
                   " [--min-time SECONDS] [--baseline FILE]\n";
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
    std::cerr << "[micro_sta] " << name << "\n";
    try {
      reports.push_back(measure(name, lib, min_time));
    } catch (const std::exception& e) {
      std::cerr << "error: " << e.what() << "\n";
      return 1;
    }
  }

  std::ostringstream json;
  json << std::fixed << std::setprecision(3);
  json << "{\n  \"bench\": \"micro_sta\",\n  \"unit\": \"ns\",\n"
       << "  \"hardware_threads\": " << std::thread::hardware_concurrency() << ",\n"
       << "  \"circuits\": [\n";
  double geo = 1.0, geo_full = 1.0;
  int n_geo = 0, n_geo_full = 0;
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const CircuitReport& r = reports[i];
    json << "    {\"name\": \"" << r.name << "\", \"cells\": " << r.cells
         << ", \"script_probes\": " << r.script_probes << std::setprecision(6)
         << ", \"gates_per_probe\": " << r.gates_per_probe
         << ", \"gates_per_full_probe\": " << r.gates_per_full_probe
         << std::setprecision(3) << ", \"ns_per_probe\": " << r.ns_per_probe
         << ", \"ns_per_full_probe\": " << r.ns_per_full_probe
         << ", \"ns_per_gate\": " << r.ns_per_gate
         << ", \"ns_per_rebuild_net\": " << r.ns_per_rebuild_net;
    if (!baseline_text.empty()) {
      const auto base = [&](const char* field) {
        return parse_field(baseline_text, r.name, field);
      };
      const double bp = base("ns_per_probe");
      const double bf = base("ns_per_full_probe");
      json << std::setprecision(6)
           << ", \"baseline_gates_per_probe\": " << base("gates_per_probe")
           << ", \"baseline_gates_per_full_probe\": " << base("gates_per_full_probe")
           << std::setprecision(3) << ", \"baseline_ns_per_probe\": " << bp
           << ", \"baseline_ns_per_full_probe\": " << bf
           << ", \"baseline_ns_per_gate\": " << base("ns_per_gate")
           << ", \"baseline_ns_per_rebuild_net\": " << base("ns_per_rebuild_net");
      if (bp > 0.0 && r.ns_per_probe > 0.0) {
        json << ", \"probe_speedup\": " << bp / r.ns_per_probe;
        geo *= bp / r.ns_per_probe;
        ++n_geo;
      }
      if (bf > 0.0 && r.ns_per_full_probe > 0.0) {
        json << ", \"full_probe_speedup\": " << bf / r.ns_per_full_probe;
        geo_full *= bf / r.ns_per_full_probe;
        ++n_geo_full;
      }
    }
    json << "}" << (i + 1 < reports.size() ? "," : "") << "\n";
  }
  json << "  ]";
  if (n_geo > 0) {
    json << ",\n  \"geomean_probe_speedup\": " << std::pow(geo, 1.0 / n_geo);
  }
  if (n_geo_full > 0) {
    json << ",\n  \"geomean_full_probe_speedup\": "
         << std::pow(geo_full, 1.0 / n_geo_full);
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
