// The bench harness behind `rapids bench <suite>`: one table of suites,
// one flag set, one writer and one way to pair a run with a baseline.
//
// Each row of bench_suites() names a suite, its default circuits and
// options, and a function that measures a BenchRun into a MetricsRegistry.
// MetricsRegistry::write_json writes the snapshot, so every BENCH_*.json
// shares the --metrics-json schema and `rapids bench-diff` gates it:
//   - keys are `<circuit>.<metric>`, and `<circuit>.t<N>.<metric>` for a
//     point measured on N workers (a circuit is named by its load_circuit
//     spec, so reordering circuits never misaligns a diff);
//   - integer shape values that repeat run to run are counters; rates,
//     ratios, times and `place_hpwl` are gauges;
//   - labels record the suite, circuits, options, `hardware_threads` and
//     `role` (candidate; the baseline's labels carry `baseline.role`).
// A suite's hard checks (netlist parity, verdict parity, load skew, sync
// growth) come back as failure lines, and `rapids bench` exits 1 on any.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "library/cell_library.hpp"
#include "netlist/network.hpp"
#include "trace/metrics.hpp"

namespace rapids {

/// One circuit of a run: its load_circuit spec and the network read from it.
struct BenchCircuit {
  std::string name;
  Network net;
};

/// What a suite measures: circuits and options after defaults and flags.
struct BenchRun {
  std::vector<BenchCircuit> circuits;
  double min_time = 1.0;     // seconds per timed loop
  std::vector<int> threads;  // worker counts (suites that take them)
  int iters = 0;             // iteration count (suites that take one)
};

/// Failed hard checks, one line each.
using BenchFailures = std::vector<std::string>;

struct BenchSuite {
  std::string name;
  std::string circuits;  // default --circuits
  double min_time = 1.0;
  std::vector<int> threads;  // default --threads; empty = takes none, one = takes one
  int iters = 0;             // default --iters; 0 = the suite takes none
  std::function<void(const BenchRun&, const CellLibrary&, MetricsRegistry&, BenchFailures&)>
      measure;
};

/// Every suite: engine, sta, parallel, sat, extract, scale, linear. Built
/// on call; nothing runs at static initialisation.
std::vector<BenchSuite> bench_suites();

/// A parsed `rapids bench` command line.
struct BenchArgs {
  BenchSuite suite;
  BenchRun run;
  std::string out;       // "" = stdout
  std::string baseline;  // a previous snapshot of the same suite, or ""
};

/// Parse `<suite> [--out FILE] [--circuits a,b] [--min-time S]
/// [--threads n,m] [--iters N] [--baseline FILE]` and read every circuit.
/// Unknown suites and flags, malformed numbers, thread counts outside
/// parse_thread_count's range, flags the suite does not take and bad
/// circuit specs throw InputError before anything is measured.
BenchArgs parse_bench_args(const std::vector<std::string>& args);

/// Run the suite into `reg` (labels included) and return its failed hard
/// checks.
BenchFailures run_bench(const BenchArgs& args, const CellLibrary& lib, MetricsRegistry& reg);

/// Copy the gauges of a baseline snapshot (JSON text of the same suite)
/// into `reg` as `<prefix>.baseline_<metric>`, its labels as
/// `baseline.<label>`, and add `<prefix>.speedup_<metric>` for every rate
/// (`*_per_sec`: candidate / baseline) and cost (`ns_per_*`: baseline /
/// candidate) both sides have. The names keep bench-diff rules on
/// `<circuit>.<metric>` off the copies.
void merge_baseline(MetricsRegistry& reg, const std::string& baseline_json);

}  // namespace rapids
