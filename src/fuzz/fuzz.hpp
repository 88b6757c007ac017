// Differential fuzzing harness for the whole rewiring flow, and the
// exactness-oracle table it shares with the flow tests: every A/B lever
// is one row of exactness_oracles(), and check_exactness() requires each
// row to reproduce the reference run (threads=1, defaults) exactly.
//
// Each fuzz iteration generates a random mapped+placed circuit (src/gen),
// runs check_exactness under a drawn mode, and checks the reference
// netlist against the mapped input (random vectors plus the SAT proof
// tier) and the structural validator.
//
// A failing iteration is shrunk to a minimal reproducer: primary outputs
// are dropped and gates bypassed greedily while the failure keeps
// reproducing. The minimized circuit is written to disk as .bench (the
// harness runs every circuit as read back from that format) next to a
// text file with the failure, the seeds and the `rapids flow` commands
// that show it. Fixed seeds make every run reproducible.
#pragma once

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "flow/flow.hpp"

namespace rapids {

/// One A/B lever: `rapids flow` flags that must reproduce the reference.
/// The check applies them with the CLI's own parser, so a repro command
/// runs exactly what the check ran.
struct ExactnessOracle {
  std::string name;       // also the failure kind check_exactness reports
  bool parallel = false;  // adds --threads N, the caller's worker count
  std::string flags;      // the row's other optimizer flags

  std::string flow_flags(int threads) const;             // all its flags
  void apply(OptimizerOptions& opt, int threads) const;  // sets them on opt
};

/// Every row.
std::vector<ExactnessOracle> exactness_oracles();
/// The named rows, in the given order; an unknown name throws.
std::vector<ExactnessOracle> exactness_oracles(std::initializer_list<std::string_view> names);

/// Sees the reference run (row == nullptr) and then each row's run.
using ExactnessObserver =
    std::function<void(const ExactnessOracle* row, const ModeRun& run)>;

/// Run the reference flow (`base` at threads=1) and then each row, with
/// `threads` workers for the parallel rows. Each row's BLIF, final delay and
/// swap/resize counts must equal the reference's, and it must verify when
/// `base.verify` is set. Paranoid runs with an inconclusive proof verdict
/// skip the netlist checks, and the per-move prover's verdicts must match
/// the session prover's move for move (the reference's, when `base` is
/// paranoid, else the last session row's). Returns "" on success, else
/// "<row>: detail" for the first failure; a self-check throw in a row is
/// that row's failure. An exception in the reference run propagates.
std::string check_exactness(const PreparedCircuit& prepared, const CellLibrary& lib,
                            OptMode mode, const FlowOptions& base, int threads,
                            const std::vector<ExactnessOracle>& rows = exactness_oracles(),
                            const ExactnessObserver& observe = {});

struct FuzzOptions {
  std::uint64_t seed = 1;
  int iterations = 25;
  /// Worker count of the rows that run on N threads.
  int threads = 3;
  int max_inputs = 16;
  int max_gates = 140;
  /// Escalate equivalence to a SAT proof (random vectors always run).
  bool sat_crosscheck = true;
  /// Shrink failing circuits to minimal reproducers.
  bool shrink = true;
  /// Budget for the shrinker, in flow re-runs per failure.
  int shrink_budget = 200;
  /// Directory for reproducer files (created if missing; empty disables
  /// writing).
  std::string repro_dir = "fuzz-repros";
};

struct FuzzFailure {
  int iteration = 0;
  std::uint64_t circuit_seed = 0;
  std::string mode;        // optimizer mode under test
  std::string kind;        // an oracle row name, "equivalence", "structure", ...
  std::string detail;
  std::string repro_path;  // minimized .bench circuit (empty if not written)
};

struct FuzzResult {
  int iterations = 0;
  std::vector<FuzzFailure> failures;
  bool ok() const { return failures.empty(); }
};

/// Run the harness; progress and failures stream to `log`.
FuzzResult run_fuzz(const FuzzOptions& options, std::ostream& log);

/// Greedy structural delta-debugging: drop primary outputs and bypass gates
/// while `still_fails` keeps returning true, within `budget` predicate
/// evaluations. Returns the smallest failing network found (the input
/// itself if nothing smaller fails). Exposed for tests.
Network shrink_network(const Network& src,
                       const std::function<bool(const Network&)>& still_fails,
                       int budget);

}  // namespace rapids
