// Parallel rewiring scheduler: conflict-sharded probe fan-out with
// deterministic commit arbitration.
//
// One optimization round is a barrier pipeline, shard -> probe -> barrier
// -> arbitrate:
//
//   generate   — the caller (optimizer phase, bench) builds candidate
//                GROUPS: one supergate's swaps, one gate's resizes. A round
//                commits at most one move per group.
//   shard      — groups are sharded by conflict signature (parallel/
//                conflict): overlapping groups share a shard where load
//                balance permits (oversized conflict components are split;
//                see conflict.hpp — safe because correctness rests on
//                replica isolation + arbitration, not on sharding).
//   probe      — a fixed worker pool evaluates shards concurrently. Each
//                worker owns a ProbeContext — a full replica of the live
//                state synced per epoch — so probing shares no mutable
//                state and every probe is a pure function of (live state,
//                move). Workers select the best move per group under the
//                round's policy.
//   barrier    — the round waits for every worker (ThreadPool::run), then
//                folds the replica counters into the live engine. Nothing
//                probes while the live engine is arbitrated and mutated.
//   arbitrate  — accepted moves are ordered canonically (gain, then group
//                index — a strict total order independent of worker count
//                and scheduling), re-probed against the LIVE engine state
//                at the current epoch, and committed only if they still
//                pay. Commits are serial, on the one live engine, in that
//                canonical order.
//
// threads == 1 is the same pipeline with N = 1: there is one shard, and it
// is probed against the live engine directly instead of a replica (probes
// are pure functions of state, so the results are identical without the
// replica's clone/sync cost).
//
// Determinism guarantee: for a fixed candidate stream, the committed move
// sequence — and therefore the final netlist, bit for bit — is identical
// for every worker count. Probe results are worker-independent (replica
// sync is byte-exact, probes restore state exactly, star nets are built in
// canonical order), the per-group selection is a pure left-fold over the
// group's move list, and arbitration consumes per-group results in a
// scheduling-independent order.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "engine/rewire_engine.hpp"
#include "parallel/conflict.hpp"
#include "parallel/probe_context.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"

namespace rapids {

class SessionContext;

/// The unit that gets at most one committed move per round: a view of
/// candidate moves the caller owns. The scheduler never copies a group's
/// moves (a winner is copied into its GroupResult).
///
/// Lifetime: a view must stay valid for the whole round it is passed to
/// (probe_round through arbitrate_and_commit). The optimizer's groups view
/// its per-slot swap cache and its pooled resize list; they stay valid
/// until its next build_groups or area-recovery phase, which re-enumerates
/// dirty slots and rebuilds the pool. Benches and tests keep their own
/// backing lists.
using ProbeGroup = std::span<const EngineMove>;

/// What "best move of a group" means for a round.
enum class ProbePolicy : std::uint8_t {
  /// Maximize critical-delay gain (phase A); threshold = minimum gain.
  /// With threshold >= 0, a move whose timing seeds all miss the round's
  /// critical path is rolled back unpropagated (it cannot gain), and a
  /// probe stops once its critical delay is proved above the baseline.
  MinCritical,
  /// Maximize sum-of-PO-arrival gain without degrading the critical delay
  /// (phase B); threshold = minimum sum gain. A probe stops once its
  /// critical delay is proved above the baseline plus the degrade slack.
  Relaxation,
  /// First move (caller pre-orders, e.g. by area ascending) whose probed
  /// critical delay stays within threshold (an absolute budget, not a
  /// gain); used by area recovery. A probe stops once its critical delay
  /// is proved above threshold.
  FirstFit,
};

/// Per-group outcome of a probe round.
struct GroupResult {
  int group = -1;
  bool has_move = false;
  EngineMove move;
  int move_index = -1;     // index of `move` in the group's move list
  int probes = 0;          // probe evaluations this group cost
  double crit_gain = 0.0;  // round-baseline critical minus probed critical
  double sum_gain = 0.0;   // round-baseline sum_po minus probed sum_po
  ConflictSignature sig;   // conflict signature of the selected move's group
};

struct SchedulerOptions {
  /// Worker count (>=1). 1 runs the identical pipeline inline — the
  /// determinism reference point.
  int threads = 1;
  /// Fanout-cone truncation depth for conflict signatures.
  int cone_depth = 2;
  /// Base seed for the per-worker RNG substreams.
  std::uint64_t seed = 0x5eed5ULL;
  /// O(dirty) replica delta sync (see ProbeContext::set_delta_sync). Off =
  /// every epoch re-clones the network — the pre-delta A/B reference.
  bool delta_sync = true;
  /// Slack-margin damped probe propagation (objective-exact bounded-cone
  /// timing; see Sta::refresh_damping_margins). The scheduler refreshes
  /// margins at round granularity on the live engine and every replica.
  /// Off = every probe propagates to the full disturbance cone — the
  /// `--no-timing-damp` A/B reference.
  bool timing_damp = true;
};

struct SchedulerStats : NamedStats<SchedulerStats> {
  std::uint64_t rounds = 0;
  std::uint64_t worker_probes = 0;        // replica-side probe evaluations
  std::uint64_t arbiter_probes = 0;       // live re-validation probes
  std::uint64_t accepted = 0;             // per-group winners entering arbitration
  std::uint64_t committed = 0;            // commits issued by the arbiter
  std::uint64_t conflicted = 0;           // winners overlapping an earlier commit
  std::uint64_t revalidation_rejects = 0; // winners whose live gain evaporated
  // Phase wall times: probe_round (worker fan-out incl. replica sync),
  // arbitration overhead, and live commits (disjoint — arbitrate excludes
  // the commit time). Replica sync cost is broken out in `sync`;
  // seconds_timing is the damping-margin refresh time, a quoted SUBSET of
  // seconds_probe (refreshes run inside the probe phase).
  double seconds_probe = 0.0;
  double seconds_arbitrate = 0.0;
  double seconds_commit = 0.0;
  double seconds_timing = 0.0;
  ReplicaSyncStats sync;
  /// Distribution of live-validated gains over committed MinCritical
  /// (critical gain) and Relaxation (sum-of-PO gain) moves. FirstFit
  /// (area-recovery) commits are left out: they trade delay for area, so
  /// their "gain" is usually <= 0 and would swamp the underflow bucket.
  /// Filled on the serial arbitration path only, so it is bit-identical for
  /// every worker count.
  Histogram gain_hist;

  /// The scalar members only: `sync` has its own list, and the optimizer
  /// exports `gain_hist` beside the engine's proof histogram.
  static constexpr auto fields() {
    using S = SchedulerStats;
    return std::tuple{
        StatField{"scheduler.rounds", &S::rounds},
        StatField{"scheduler.worker_probes", &S::worker_probes},
        StatField{"scheduler.arbiter_probes", &S::arbiter_probes},
        StatField{"scheduler.accepted", &S::accepted},
        StatField{"scheduler.arbiter_commits", &S::committed},
        StatField{"scheduler.conflicted", &S::conflicted},
        StatField{"scheduler.revalidation_rejects", &S::revalidation_rejects},
        StatField{"time.probe_s", &S::seconds_probe},
        StatField{"time.arbitrate_s", &S::seconds_arbitrate},
        StatField{"time.commit_s", &S::seconds_commit},
        StatField{"time.timing_s", &S::seconds_timing}};
  }
};

class ParallelRewireScheduler {
 public:
  /// `engine` is the live engine: probes replicate FROM it, commits go
  /// THROUGH it. `session` owns the round's observability (trace spans,
  /// provenance records) and lends its persistent worker pool. Both must
  /// outlive the scheduler.
  ParallelRewireScheduler(RewireEngine& engine, SessionContext& session,
                          const SchedulerOptions& options);
  ParallelRewireScheduler(const ParallelRewireScheduler&) = delete;
  ParallelRewireScheduler& operator=(const ParallelRewireScheduler&) = delete;

  int threads() const { return pool_.workers(); }

  /// Shard `groups` by conflict signature and probe them in parallel
  /// against the live state. Returns one result per group, indexed like
  /// `groups`, independent of worker count.
  std::vector<GroupResult> probe_round(std::span<const ProbeGroup> groups,
                                       ProbePolicy policy, double threshold);

  /// Re-validate a round's winners against the live epoch and commit the
  /// survivors in canonical order. Returns the number committed. When
  /// `groups` is supplied, a FirstFit winner whose live re-validation
  /// fails falls back to replaying the serial scan for its group (every
  /// candidate probed live, in order, first fit wins). Groups with no
  /// replica winner are pruned before arbitration — the round's parallel
  /// win, and its one deliberate divergence from the serial algorithm.
  int arbitrate_and_commit(std::vector<GroupResult> results, ProbePolicy policy,
                           double threshold,
                           std::span<const ProbeGroup> groups = {});

  /// probe_round + arbitrate_and_commit.
  int run_round(std::span<const ProbeGroup> groups, ProbePolicy policy,
                double threshold);

  const SchedulerStats& stats() const { return stats_; }
  /// Per-worker replica probe counts (merged on demand; workers quiescent
  /// between rounds).
  const ShardedStats& worker_probe_stats() const { return probe_stats_; }

 private:
  GroupResult probe_group(RewireEngine& eng, ProbeScratch& scratch, int group_index,
                          ProbeGroup group, ProbePolicy policy,
                          double threshold, double base_critical,
                          double base_sum) const;

  /// Absorb per-context engine/session/partition/sync counters into the
  /// live engine and scheduler totals; returns the replica probe count of
  /// the harvested window. Main thread only, workers quiescent.
  std::uint64_t harvest_worker_counters();

  RewireEngine& engine_;
  SchedulerOptions options_;
  SessionContext& session_;
  ThreadPool& pool_;  // lent by session_
  std::vector<std::unique_ptr<ProbeContext>> contexts_;
  ProbeScratch serial_scratch_;  // single-worker fast path probes the live engine
  // This round's critical-path mask (empty = pruning off), written before
  // the workers start and only read while they run.
  std::vector<std::uint8_t> critical_mask_;
  SchedulerStats stats_;
  ShardedStats probe_stats_;
};

}  // namespace rapids
