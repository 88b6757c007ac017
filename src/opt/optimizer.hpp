// Post-placement performance optimization (paper §5-§6).
//
// Three algorithms on one two-phase engine (Coudert-style [2]):
//   gsg    — supergate-based rewiring only: each supergate's feasible pin
//            swaps act as alternative "library implementations";
//   GS     — gate sizing only (drive-strength reassignment);
//   gsg+GS — rewiring for gates covered by non-trivial supergates, sizing
//            for the rest (minimum perturbation of the placement).
//
// Phase A maximizes the minimum slack (equivalently: minimizes the critical
// delay against a fixed required time): the best move per group is found,
// moves are sorted by gain and applied greedily with re-validation.
// Phase B (relaxation) applies per-group moves that reduce the total
// arrival at the outputs without degrading the critical delay, to escape
// local minima. Phases iterate until no improvement.
//
// Every phase is a generate -> shard -> parallel-probe -> arbitrate ->
// commit round through the ParallelRewireScheduler (src/parallel): probe
// evaluation fans out across `threads` conflict-sharded workers, and the
// commit arbiter re-validates winners against the live state in a
// canonical order — so any `threads` value produces a bit-identical
// netlist to `threads = 1`.
//
// The existing placement is never perturbed: cells keep their exact
// locations; only inverters can be added or deleted (gsg modes).
#pragma once

#include <cstdint>
#include <vector>

#include "library/cell_library.hpp"
#include "netlist/network.hpp"
#include "place/placement.hpp"
#include "sym/gisg.hpp"
#include "timing/sta.hpp"
#include "util/stats.hpp"

namespace rapids {

class SessionContext;

enum class OptMode : std::uint8_t { Gsg, GateSizing, GsgPlusGS };

const char* to_string(OptMode mode);

struct OptimizerOptions {
  OptMode mode = OptMode::GsgPlusGS;
  /// Maximum A+B rounds.
  int max_iterations = 6;
  /// Minimum critical-delay gain (ns) for a move / an iteration to count.
  double min_gain = 1e-6;
  /// Restrict rewiring to leaf-leaf swaps (pure wire exchanges); internal
  /// subtree swaps are also tried when false.
  bool leaves_only_swaps = false;
  /// Cap on evaluated swap candidates per supergate (largest-gain-estimate
  /// first); guards against quadratic blowup on very wide supergates.
  int max_swaps_per_sg = 256;
  /// Probe worker count for the parallel scheduler (>= 1). The final
  /// netlist is bit-identical for every value; only wall-clock changes.
  int threads = 1;
  /// Base seed for per-worker RNG substreams (the flow plumbs its placer
  /// seed through here so one seed reproduces the whole run).
  std::uint64_t seed = 0x5eed5ULL;
  /// Verify-every-commit mode: every committed Swap/CrossSg move is
  /// SAT-proved function-preserving on its invalidated cone before it is
  /// kept (engine paranoid mode). A failed proof throws InternalError.
  bool paranoid = false;
  /// Paranoid prover backend: true (default) keeps ONE incremental proof
  /// session alive for the whole run (sat/proof_session.hpp — cached cone
  /// encodings, shared learned clauses, per-move activation literals);
  /// false builds a throwaway solver per move (sat/window.hpp). Both prove
  /// the same move set; `flow --no-sat-session` is the escape hatch.
  bool sat_session = true;
  /// Incremental GISG partition maintenance (default on): commits splice
  /// their dirty regions into a persistent partition and probe groups of
  /// untouched supergates are reused across rounds. false re-extracts the
  /// whole network after every commit and rebuilds every group — the
  /// pre-incremental behavior, kept as an A/B lever (the final netlist is
  /// identical either way; bench/incremental_extract measures the gap).
  bool incremental_extraction = true;
  /// Self-check: after every incremental partition update, cross-check
  /// against a fresh full extraction and abort on any canonical difference
  /// (engine extract-diff mode; O(network) per commit — tests/fuzzing).
  bool extract_diff = false;
  /// O(dirty) replica delta sync in the parallel scheduler (default on):
  /// probe workers adopt only the committed rounds' dirty gates, STA slices
  /// and free-stack state instead of re-cloning the network each epoch.
  /// Off = the pre-delta full-clone path, kept as an A/B lever; the final
  /// netlist is bit-identical either way.
  bool delta_replica_sync = true;
  /// Slack-margin damped timing propagation (default on): probe-time STA
  /// re-propagation stops at gates whose arrival increase stays under a
  /// PO-seeded slack margin (refreshed per scheduler round), so probe cost
  /// tracks the real disturbance instead of the structural fanout cone.
  /// Commits always propagate undamped. The probe objectives — and hence
  /// the committed netlist — are bit-identical either way; `flow
  /// --no-timing-damp` is the A/B lever.
  bool timing_damp = true;
  /// Self-check: after every damped probe propagation, replay the deferred
  /// gates undamped and abort if any primary-output arrival moves (proves
  /// the damping cutoff exact; O(deferred) per probe — tests/fuzzing).
  bool timing_damp_diff = false;
  /// Slack-epoch candidate cache (default on): serve arrival-gap-pruned
  /// swap lists from the per-slot cache while every relevant driver's
  /// arrival stamp is unchanged, instead of re-enumerating each phase. The
  /// cached list equals what re-enumeration would produce (stamps prove
  /// the arrivals are bit-identical), so the commit stream is unchanged.
  bool prune_cache = true;
  /// The caller just ran sta.run_full() against this exact network state
  /// (the flow driver does): skip the optimizer's own initial full pass.
  bool sta_is_fresh = false;
  /// Session the run's observability (trace spans, provenance, metrics,
  /// engine + proof-session instants) and worker pool belong to, threaded
  /// by reference through flow → scheduler → probe contexts → replica
  /// engines. The one session option of the flow. Null is legal only at
  /// the public entry points (prepare_circuit, run_mode, optimize), which
  /// resolve it once into a call-local owned session.
  SessionContext* session = nullptr;
};

struct OptimizerResult {
  double initial_delay = 0.0;
  double final_delay = 0.0;
  double initial_area = 0.0;
  double final_area = 0.0;
  int swaps_committed = 0;
  int resizes_committed = 0;
  int inverters_added = 0;
  int inverters_removed = 0;
  int iterations = 0;
  double seconds = 0.0;
  /// Total probe evaluations (replica workers + live arbiter) and the
  /// worker count they ran on.
  std::uint64_t probes = 0;
  int threads = 1;
  /// Committed moves discharged by the paranoid SAT prover (0 unless
  /// OptimizerOptions::paranoid).
  std::uint64_t moves_proved = 0;
  /// Moves rejected with neither proof nor refutation (full-miter budget).
  std::uint64_t paranoid_inconclusive = 0;
  /// Ordered per-commit proof outcomes (engine ProofVerdict values; empty
  /// unless paranoid). Differential tests assert session and per-move
  /// prover modes agree move-for-move.
  std::vector<std::uint8_t> paranoid_verdicts;
  /// Prover work counters (paranoid only). `proof_gates_encoded` is the
  /// window_gates / gates_encoded analogue of whichever prover ran — the
  /// headline the session exists to shrink. Session-only counters are 0 in
  /// per-move mode.
  std::uint64_t proof_gates_encoded = 0;
  std::uint64_t proof_conflicts = 0;
  std::uint64_t proof_cache_hits = 0;
  std::uint64_t proof_roots_structural = 0;
  std::uint64_t proof_roots_by_sat = 0;
  /// Session solver clause-DB health (retention/eviction breakdown).
  std::uint64_t solver_learned_kept = 0;
  std::uint64_t solver_learned_deleted = 0;
  std::uint64_t solver_reduce_dbs = 0;
  // Supergate statistics from the first extraction (Table 1 cols 12-14).
  double coverage = 0.0;          // fraction of gates in non-trivial SGs
  int max_sg_inputs = 0;          // L
  std::size_t redundancies_found = 0;
  /// Partition-reuse counters: supergates re-extracted vs reused per
  /// incremental update, probe groups served from the per-slot cache, and
  /// full rebuilds (1 = only the initial extraction; more means an
  /// out-of-engine mutation forced the escape hatch). Merged across
  /// parallel workers.
  PartitionStats partition;
  /// Per-phase wall times (seconds): setup = initial STA + first
  /// extraction; probe = worker fan-out including replica sync; arbitrate =
  /// winner re-validation (commit time excluded); commit = live commits;
  /// sync = replica sync alone (a subset of probe wall time).
  double seconds_setup = 0.0;
  double seconds_probe = 0.0;
  double seconds_arbitrate = 0.0;
  double seconds_commit = 0.0;
  double seconds_sync = 0.0;
  /// Damping-margin refresh time (a subset of probe wall time, like sync).
  double seconds_timing = 0.0;
  /// Propagation-shape counters (merged across live engine + replicas):
  /// queue pops across every probe/commit propagation, pops suppressed by
  /// the slack-margin cutoff, exact undamped replays after an in-probe PO
  /// arrival decrease, and PO-seeded margin recomputations. cutoffs /
  /// (propagated + cutoffs) is the damping rate; gates_propagated / probes
  /// is the per-probe cost the damping exists to flatten. probes_pruned
  /// counts the probes (included in `probes`) that propagated nothing
  /// because their seeds all missed the critical path.
  std::uint64_t gates_propagated = 0;
  std::uint64_t probes_pruned = 0;
  std::uint64_t damp_cutoffs = 0;
  std::uint64_t damp_fallbacks = 0;
  std::uint64_t margin_refreshes = 0;
  /// Replica-sync cost breakdown (zero at --threads 1, which probes the
  /// live engine and never syncs).
  std::uint64_t replica_full_syncs = 0;
  std::uint64_t replica_delta_syncs = 0;
  /// Commit epochs spanned by the delta syncs — the denominator for
  /// bytes-per-commit (each sync covers every commit since the replica's
  /// last synced epoch, not one).
  std::uint64_t replica_delta_commits = 0;
  std::uint64_t replica_sync_bytes_full = 0;
  std::uint64_t replica_sync_bytes_delta = 0;
  /// Commit-path O(dirty) counters, measured AFTER the setup extraction so
  /// they reflect steady-state per-commit cost: fanout-order canonicalize
  /// passes and gates actually re-sorted; swap candidates materialized by
  /// enumeration; pruned move lists served by the slack-epoch cache.
  std::uint64_t canonicalize_calls = 0;
  std::uint64_t gates_canonicalized = 0;
  std::uint64_t candidates_enumerated = 0;
  std::uint64_t pruned_groups_cached = 0;
  /// Scheduler round/arbitration counters (merged across phases):
  /// committed/accepted is the arbitration yield, conflicted +
  /// revalidation_rejects + stale_cross_sg the wasted winners.
  std::uint64_t sched_rounds = 0;
  std::uint64_t sched_accepted = 0;
  std::uint64_t sched_conflicted = 0;
  std::uint64_t sched_revalidation_rejects = 0;
  std::uint64_t sched_stale_cross_sg = 0;
  /// Distribution of committed MinCritical/Relaxation gains (ns; FirstFit
  /// area-recovery commits excluded) and of per-proof SAT conflict counts
  /// (paranoid only) — p50/p90/p99 in the flow summary.
  Histogram gain_hist;
  Histogram proof_conflict_hist;
  /// Remaining phase buckets so `phases:` sums to `seconds`: group building
  /// (candidate generation incl. swap-cache fills), finalize (post-loop
  /// cleanup + final STA), and whatever is left over. The optimizer warns
  /// if unattributed time exceeds 5% of the total.
  double seconds_groups = 0.0;
  double seconds_finalize = 0.0;
  double seconds_unattributed = 0.0;

  double improvement_percent() const {
    return initial_delay > 0 ? 100.0 * (initial_delay - final_delay) / initial_delay : 0.0;
  }
  double area_delta_percent() const {
    return initial_area > 0 ? 100.0 * (final_area - initial_area) / initial_area : 0.0;
  }
};

/// Run the selected optimizer. `sta` must be bound to (net, lib, placement)
/// and is left consistent (full recompute) on return.
OptimizerResult optimize(Network& net, Placement& placement, const CellLibrary& lib,
                         Sta& sta, const OptimizerOptions& options = {});

}  // namespace rapids
