// Incremental GISG partition maintenance gauge (BENCH_extract.json).
//
// The paper's pitch is that supergate extraction is linear-time; before
// this subsystem the optimizer nevertheless paid that linear cost over the
// WHOLE network after every committed move. This bench quantifies what the
// dirty-region re-extractor buys:
//
//   per circuit:
//     commit loop — alternate committing a gainful swap and re-querying the
//       partition, measuring gates re-extracted per commit (incremental)
//       against network size (what a full rebuild re-extracts every time),
//       and the wall-clock ratio of the two maintenance modes on the
//       identical commit stream;
//     flow A/B — the full gsg+GS flow with incremental maintenance on vs
//       off: end-to-end seconds, partition counters, probe groups served
//       from the optimizer's per-slot cache, and a netlist parity check
//       (the two modes must commit the exact same move stream).
//
// Usage: incremental_extract [--out BENCH_extract.json] [--circuits a,b,c]
//                            [--iters N]
#include <fstream>
#include <iostream>
#include <sstream>
#include <tuple>
#include <string>
#include <vector>

#include "engine/rewire_engine.hpp"
#include "flow/flow.hpp"
#include "gen/suite.hpp"
#include "io/blif_writer.hpp"
#include "library/cell_library.hpp"
#include "mapping/mapper.hpp"
#include "opt/optimizer.hpp"
#include "place/placer.hpp"
#include "sym/gisg.hpp"
#include "sym/symmetry.hpp"
#include "timing/sta.hpp"
#include "util/timer.hpp"

namespace {

using namespace rapids;

struct CommitLoopPoint {
  std::size_t network_gates = 0;
  int commits = 0;
  double gates_reextracted_per_commit = 0.0;  // incremental mode
  double incremental_update_ms = 0.0;         // partition() after one commit
  double full_rebuild_ms = 0.0;               // same query, maintenance off
  double speedup = 0.0;
};

/// Commit gainful swaps one at a time, querying the partition after every
/// commit — the optimizer's access pattern, isolated from probing/STA noise.
CommitLoopPoint commit_loop(const std::string& name, const CellLibrary& lib,
                            bool incremental, int max_commits) {
  Network net = map_network(make_benchmark(name), lib).mapped;
  PlacerOptions popt;
  popt.effort = 2.0;
  popt.num_temps = 8;
  Placement pl = place(net, lib, popt);
  Sta sta(net, lib, pl);
  RewireEngine engine(net, pl, lib, sta);
  engine.set_incremental_extraction(incremental);

  CommitLoopPoint pt;
  pt.network_gates = net.num_logic_gates();
  Timer total;
  for (int i = 0; i < max_commits; ++i) {
    // Best single swap by probed gain (re-enumerated per epoch, as the
    // stale-candidate contract requires). Negative-gain swaps are fine:
    // this loop gauges partition maintenance cost, not QoR, and every
    // swap is function-preserving. Exact-gain ties break on a
    // slot-independent pin key: enumeration order follows partition slot
    // numbering, which differs between the two maintenance modes, and the
    // A/B comparison is only honest over the identical commit stream.
    const GisgPartition& part = engine.partition();
    const auto cands = enumerate_all_swaps(part, net);
    auto pin_key = [](const SwapCandidate& c) {
      return std::tuple(c.pin_a.gate, c.pin_a.index, c.pin_b.gate, c.pin_b.index);
    };
    const SwapCandidate* best = nullptr;
    double best_gain = -1e18;
    const double base = sta.critical_delay();
    for (const SwapCandidate& c : cands) {
      const EngineObjective obj = engine.probe(EngineMove::swap(c));
      const double gain = base - obj.critical;
      if (gain > best_gain ||
          (best != nullptr && gain == best_gain && pin_key(c) < pin_key(*best))) {
        best_gain = gain;
        best = &c;
      }
    }
    if (best == nullptr) break;
    engine.commit(EngineMove::swap(*best));
    // The measured quantity: materializing the partition after one commit.
    Timer t;
    engine.partition();
    const double ms = t.seconds() * 1e3;
    if (incremental) {
      pt.incremental_update_ms += ms;
    } else {
      pt.full_rebuild_ms += ms;
    }
    ++pt.commits;
  }
  if (pt.commits > 0) {
    const PartitionStats& ps = engine.partition_stats();
    pt.gates_reextracted_per_commit =
        static_cast<double>(ps.gates_reextracted) / pt.commits;
    pt.incremental_update_ms /= pt.commits;
    pt.full_rebuild_ms /= pt.commits;
  }
  return pt;
}

struct FlowPoint {
  double seconds = 0.0;
  int moves = 0;
  double final_delay = 0.0;
  MetricsRegistry metrics;  // the run's OptimizerResult::metrics
  std::string blif;
};

FlowPoint run_flow(const PreparedCircuit& prepared, const CellLibrary& lib,
                   bool incremental) {
  FlowOptions fopt;
  fopt.verify = false;
  fopt.opt.incremental_extraction = incremental;
  const ModeRun run = run_mode(prepared, lib, OptMode::GsgPlusGS, fopt);
  FlowPoint pt;
  pt.seconds = run.result.seconds;
  pt.metrics = run.result.metrics;
  pt.moves = run.result.swaps_committed + run.result.resizes_committed;
  pt.final_delay = run.result.final_delay;
  std::ostringstream os;
  write_blif(run.optimized, os, "bench");
  pt.blif = os.str();
  return pt;
}

struct CircuitReport {
  std::string name;
  CommitLoopPoint inc_loop;
  CommitLoopPoint full_loop;
  FlowPoint inc_flow;
  FlowPoint full_flow;
  bool netlists_match = false;
};

CircuitReport measure(const std::string& name, const CellLibrary& lib, int iters) {
  CircuitReport rep;
  rep.name = name;
  rep.inc_loop = commit_loop(name, lib, /*incremental=*/true, iters);
  rep.full_loop = commit_loop(name, lib, /*incremental=*/false, iters);
  if (rep.full_loop.full_rebuild_ms > 0.0 && rep.inc_loop.incremental_update_ms > 0.0) {
    rep.inc_loop.speedup =
        rep.full_loop.full_rebuild_ms / rep.inc_loop.incremental_update_ms;
  }

  FlowOptions fopt;
  const PreparedCircuit prepared = prepare_benchmark(name, lib, fopt);
  rep.inc_flow = run_flow(prepared, lib, /*incremental=*/true);
  rep.full_flow = run_flow(prepared, lib, /*incremental=*/false);
  // The headline correctness claim: identical committed move stream, so
  // identical netlists — incremental maintenance changes cost, not results.
  rep.netlists_match = rep.inc_flow.blif == rep.full_flow.blif &&
                       rep.inc_flow.moves == rep.full_flow.moves;
  return rep;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_extract.json";
  std::vector<std::string> circuits = {"alu2", "c432", "c499", "c1908"};
  int iters = 24;
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
    } else if (a == "--iters") {
      iters = std::stoi(next());
    } else if (a == "--circuits") {
      circuits.clear();
      std::stringstream ss(next());
      std::string tok;
      while (std::getline(ss, tok, ',')) circuits.push_back(tok);
    } else {
      std::cerr << "usage: incremental_extract [--out FILE] [--circuits a,b,c]"
                   " [--iters N]\n";
      return 2;
    }
  }

  const CellLibrary lib = builtin_library_035();
  std::vector<CircuitReport> reports;
  bool all_match = true;
  for (const std::string& name : circuits) {
    std::cerr << "[incremental_extract] " << name << "\n";
    try {
      reports.push_back(measure(name, lib, iters));
      all_match = all_match && reports.back().netlists_match;
    } catch (const std::exception& e) {
      std::cerr << "error: " << e.what() << "\n";
      return 1;
    }
  }

  std::ostringstream json;
  json << "{\n  \"bench\": \"incremental_extract\",\n"
       << "  \"all_netlists_match\": " << (all_match ? "true" : "false")
       << ",\n  \"circuits\": [\n";
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const CircuitReport& r = reports[i];
    const MetricsRegistry& inc = r.inc_flow.metrics;
    json << "    {\"name\": \"" << r.name << "\", \"network_gates\": "
         << r.inc_loop.network_gates << ",\n     \"commit_loop\": {"
         << "\"commits\": " << r.inc_loop.commits
         << ", \"gates_reextracted_per_commit\": "
         << r.inc_loop.gates_reextracted_per_commit
         << ", \"incremental_update_ms\": " << r.inc_loop.incremental_update_ms
         << ", \"full_rebuild_ms\": " << r.full_loop.full_rebuild_ms
         << ", \"speedup\": " << r.inc_loop.speedup << "},\n"
         << "     \"flow\": {\"incremental_seconds\": " << r.inc_flow.seconds
         << ", \"full_seconds\": " << r.full_flow.seconds
         << ", \"moves\": " << r.inc_flow.moves
         << ", \"final_delay_ns\": " << r.inc_flow.final_delay
         << ", \"sgs_reextracted\": " << inc.counter("partition.sgs_reextracted")
         << ", \"sgs_reused\": " << inc.counter("partition.sgs_reused")
         << ", \"groups_reused\": " << inc.counter("partition.groups_reused")
         << ", \"incremental_updates\": " << inc.counter("partition.incremental_updates")
         << ", \"full_rebuilds\": " << inc.counter("partition.full_rebuilds")
         << ", \"netlists_match\": " << (r.netlists_match ? "true" : "false")
         << "}}" << (i + 1 < reports.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";

  std::ofstream out(out_path);
  out << json.str();
  out.flush();
  std::cout << json.str();
  if (!out) {
    std::cerr << "error: failed to write " << out_path << "\n";
    return 1;
  }
  std::cerr << "wrote " << out_path << "\n";
  return all_match ? 0 : 1;
}
