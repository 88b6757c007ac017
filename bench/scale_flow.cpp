// Industrial-scale flow gauge (BENCH_scale.json).
//
// The tentpole claim: the per-commit costs of the parallel flow are
// O(dirty), not O(network) — replica delta sync ships only committed
// rounds' touched state, fanout-order canonicalization re-sorts only
// dirty gates, and the slack-epoch cache skips re-enumerating pruned
// swap lists whose driver arrivals are unchanged. This bench runs the
// full flow (generate -> map -> place -> optimize) over the synthetic
// large-circuit profile at several sizes and reports, per size point:
//
//   - per-epoch replica sync bytes (delta path) next to what one full
//     clone of the network would have cost,
//   - gates re-sorted per canonicalize pass after setup,
//   - swap candidates enumerated vs pruned lists served from cache,
//   - timing propagation shape: gates propagated per probe and the
//     slack-margin damp cutoff rate (the probe-cost story),
//   - the phase-timing breakdown (setup/probe/arbitrate/commit/sync).
//
// The acceptance gauge is the growth ratio of the per-commit quantities
// from the smallest to the largest size point: O(dirty) costs stay
// roughly flat (<= 2x) while the network grows 20x. The bench FAILS
// (exit 1) when per-commit sync bytes grow as fast as the mapped network
// itself — that would mean the delta path degenerated to O(network).
//
// Usage: scale_flow [--out BENCH_scale.json] [--sizes 10000,50000,...]
//                   [--threads N] [--iters N] [--seed N]
#include <cstdint>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "flow/flow.hpp"
#include "gen/large.hpp"
#include "library/cell_library.hpp"
#include "trace/metrics.hpp"
#include "util/timer.hpp"

namespace {

using namespace rapids;

struct SizePoint {
  std::size_t target_gates = 0;
  std::size_t mapped_gates = 0;
  double initial_delay = 0.0;
  double final_delay = 0.0;
  int commits = 0;
  double seconds_total = 0.0;
  double seconds_generate = 0.0;
  double seconds_prepare = 0.0;
  MetricsRegistry metrics;  // the run's OptimizerResult::metrics

  std::uint64_t count(const char* name) const { return metrics.counter(name); }
  double secs(const char* name) const { return metrics.gauge(name); }
  /// count(num) / count(den), 0 when the denominator is 0.
  double per(const char* num, const char* den) const {
    return ratio(count(num), count(den));
  }
  static double ratio(std::uint64_t num, std::uint64_t den) {
    return den > 0 ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
  }
  double sync_bytes_per_commit() const {
    return per("sync.bytes_delta", "sync.delta_commits");
  }
  double gates_canonicalized_per_call() const {
    return per("engine.gates_canonicalized", "engine.canonicalize_calls");
  }
  double gates_propagated_per_probe() const {
    return per("timing.gates_propagated", "engine.probes");
  }
  /// cutoffs / (propagated + cutoffs)
  double damp_cutoff_rate() const {
    const std::uint64_t cutoffs = count("timing.damp_cutoffs");
    return ratio(cutoffs, count("timing.gates_propagated") + cutoffs);
  }
};

SizePoint measure(std::size_t target, std::uint64_t seed, int threads, int iters,
                  const CellLibrary& lib) {
  SizePoint pt;
  pt.target_gates = target;

  Timer gen_timer;
  LargeCircuitOptions lopt;
  lopt.target_gates = target;
  lopt.seed = seed;
  const Network src = make_large_circuit(lopt);
  pt.seconds_generate = gen_timer.seconds();

  FlowOptions fopt;
  fopt.verify = false;  // equivalence checking is its own (non-O(dirty)) story
  fopt.opt.mode = OptMode::Gsg;
  fopt.opt.threads = threads;
  fopt.opt.max_iterations = iters;

  Timer prep_timer;
  PreparedCircuit prepared =
      prepare_circuit("gen" + std::to_string(target), src, lib, fopt);
  pt.seconds_prepare = prep_timer.seconds();
  pt.mapped_gates = prepared.mapped.num_logic_gates();

  ModeRun run = run_mode(std::move(prepared), lib, fopt.opt.mode, fopt);
  const OptimizerResult& r = run.result;
  pt.initial_delay = r.initial_delay;
  pt.final_delay = r.final_delay;
  pt.commits = r.swaps_committed + r.resizes_committed;
  pt.seconds_total = r.seconds;
  pt.metrics = std::move(run.result.metrics);
  return pt;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_scale.json";
  std::vector<std::size_t> sizes = {10000, 50000, 100000, 200000, 500000};
  int threads = 2;
  int iters = 1;
  std::uint64_t seed = 7;
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
    } else if (a == "--sizes") {
      sizes.clear();
      std::stringstream ss(next());
      std::string tok;
      while (std::getline(ss, tok, ',')) sizes.push_back(std::stoull(tok));
    } else if (a == "--threads") {
      threads = std::stoi(next());
    } else if (a == "--iters") {
      iters = std::stoi(next());
    } else if (a == "--seed") {
      seed = std::stoull(next());
    } else {
      std::cerr << "usage: scale_flow [--out FILE] [--sizes n,n,...]"
                   " [--threads N] [--iters N] [--seed N]\n";
      return 2;
    }
  }

  const CellLibrary lib = builtin_library_035();
  std::vector<SizePoint> points;
  for (const std::size_t size : sizes) {
    std::cerr << "[scale_flow] " << size << " gates, threads=" << threads << "\n";
    try {
      points.push_back(measure(size, seed, threads, iters, lib));
    } catch (const std::exception& e) {
      std::cerr << "error at size " << size << ": " << e.what() << "\n";
      return 1;
    }
  }

  // Growth of the per-commit O(dirty) quantities, smallest -> largest.
  double sync_growth = 0.0, canon_growth = 0.0, size_growth = 0.0;
  double probe_cost_growth = 0.0;
  if (points.size() >= 2) {
    const SizePoint& lo = points.front();
    const SizePoint& hi = points.back();
    if (lo.sync_bytes_per_commit() > 0) {
      sync_growth = hi.sync_bytes_per_commit() / lo.sync_bytes_per_commit();
    }
    if (lo.gates_canonicalized_per_call() > 0) {
      canon_growth =
          hi.gates_canonicalized_per_call() / lo.gates_canonicalized_per_call();
    }
    if (lo.gates_propagated_per_probe() > 0) {
      probe_cost_growth =
          hi.gates_propagated_per_probe() / lo.gates_propagated_per_probe();
    }
    size_growth = static_cast<double>(hi.mapped_gates) /
                  static_cast<double>(lo.mapped_gates > 0 ? lo.mapped_gates : 1);
  }

  std::ostringstream json;
  json << "{\n  \"bench\": \"scale_flow\",\n"
       << "  \"threads\": " << threads << ",\n"
       << "  \"iters\": " << iters << ",\n"
       << "  \"seed\": " << seed << ",\n"
       << "  \"network_size_growth\": " << size_growth << ",\n"
       << "  \"sync_bytes_per_commit_growth\": " << sync_growth << ",\n"
       << "  \"gates_canonicalized_per_call_growth\": " << canon_growth << ",\n"
       << "  \"gates_propagated_per_probe_growth\": " << probe_cost_growth << ",\n"
       << "  \"points\": [\n";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const SizePoint& p = points[i];
    json << "    {\"target_gates\": " << p.target_gates
         << ", \"mapped_gates\": " << p.mapped_gates
         << ", \"initial_delay_ns\": " << p.initial_delay
         << ", \"final_delay_ns\": " << p.final_delay
         << ", \"commits\": " << p.commits << ",\n"
         << "     \"seconds\": {\"generate\": " << p.seconds_generate
         << ", \"prepare\": " << p.seconds_prepare
         << ", \"optimize\": " << p.seconds_total
         << ", \"setup\": " << p.secs("time.setup_s")
         << ", \"probe\": " << p.secs("time.probe_s")
         << ", \"arbitrate\": " << p.secs("time.arbitrate_s")
         << ", \"commit\": " << p.secs("time.commit_s")
         << ", \"sync\": " << p.secs("time.sync_s")
         << ", \"margins\": " << p.secs("time.timing_s") << "},\n"
         << "     \"replica_sync\": {\"delta_syncs\": " << p.count("sync.delta_syncs")
         << ", \"full_syncs\": " << p.count("sync.full_syncs")
         << ", \"delta_commits_covered\": " << p.count("sync.delta_commits")
         << ", \"bytes_delta_total\": " << p.count("sync.bytes_delta")
         << ", \"bytes_full_total\": " << p.count("sync.bytes_full")
         << ", \"bytes_per_epoch\": " << p.per("sync.bytes_delta", "sync.delta_syncs")
         << ", \"bytes_per_commit\": " << p.sync_bytes_per_commit()
         << ", \"clone_bytes\": " << p.per("sync.bytes_full", "sync.full_syncs") << "},\n"
         << "     \"commit_path\": {\"canonicalize_calls\": "
         << p.count("engine.canonicalize_calls")
         << ", \"gates_canonicalized\": " << p.count("engine.gates_canonicalized")
         << ", \"gates_per_call\": " << p.gates_canonicalized_per_call()
         << ", \"candidates_enumerated\": " << p.count("engine.candidates_enumerated")
         << ", \"pruned_groups_cached\": " << p.count("engine.pruned_groups_cached")
         << "},\n"
         << "     \"timing\": {\"probes\": " << p.count("engine.probes")
         << ", \"gates_propagated\": " << p.count("timing.gates_propagated")
         << ", \"gates_propagated_per_probe\": " << p.gates_propagated_per_probe()
         << ", \"damp_cutoffs\": " << p.count("timing.damp_cutoffs")
         << ", \"damp_cutoff_rate\": " << p.damp_cutoff_rate()
         << ", \"margin_refreshes\": " << p.count("timing.margin_refreshes") << "}}"
         << (i + 1 < points.size() ? "," : "") << "\n";
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

  // O(dirty) acceptance check: per-commit sync bytes must grow strictly
  // slower than the mapped network. A ratio at or above the size growth
  // means the dedup+compacted delta journal degenerated to shipping
  // O(network) state per commit.
  if (points.size() >= 2 && sync_growth > 0.0 && size_growth > 0.0 &&
      sync_growth >= size_growth) {
    std::cerr << "FAIL: sync bytes_per_commit grew " << sync_growth
              << "x while the network grew " << size_growth
              << "x — the delta sync path is no longer O(dirty)\n";
    return 1;
  }
  return 0;
}
