// Differential fuzzing harness for the whole rewiring flow.
//
// Each iteration generates a random mapped+placed circuit (src/gen), runs
// the full optimize flow under a drawn mode at --threads 1 and --threads N,
// and cross-checks the results two ways:
//
//   determinism — the two netlists must be byte-identical as BLIF (the
//                 parallel scheduler's core contract);
//   equivalence — the optimized netlist must match the mapped input, with
//                 the SAT proof tier on top of random vectors.
//
// A failing iteration is shrunk to a minimal reproducer: primary outputs
// are dropped and gates bypassed greedily while the failure keeps
// reproducing, and the minimized circuit is written to disk as BLIF next
// to a text file describing the failure and the exact seeds. Fixed seeds
// make every run — including the CI smoke run — reproducible.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "netlist/network.hpp"

namespace rapids {

struct FuzzOptions {
  std::uint64_t seed = 1;
  int iterations = 25;
  /// Worker count for the parallel differential run (compared to 1).
  int threads = 3;
  int max_inputs = 16;
  int max_gates = 140;
  /// Escalate equivalence to a SAT proof (random vectors always run).
  bool sat_crosscheck = true;
  /// Paranoid prover differential: additionally run the serial flow with
  /// --paranoid in incremental-session mode AND per-move-solver mode, and
  /// require byte-identical netlists plus move-for-move identical proof
  /// verdicts between the two (and against the plain run's netlist).
  bool paranoid_diff = false;
  /// Incremental-extraction differential: run the flows with the engine's
  /// extract-diff self-check armed (incremental partition cross-checked
  /// against a fresh full extraction after EVERY committed move), and
  /// additionally require the incremental flow's netlist to be
  /// byte-identical to a full-rebuild-per-commit flow. Failures shrink to
  /// minimal reproducers like every other kind.
  bool extract_diff = false;
  /// Timing-damping differential: run the flows with the Sta's damp-diff
  /// self-check armed (every damped probe propagation replayed undamped,
  /// per-probe PO-arrival equality asserted), and additionally require the
  /// damped flow's netlist and final delay to be byte-identical to a
  /// `--no-timing-damp` full-cone flow.
  bool timing_damp_diff = false;
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
  std::string kind;  // "equivalence" | "determinism" | ...
  std::string detail;
  std::string repro_path;  // minimized BLIF (empty if not written)
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
