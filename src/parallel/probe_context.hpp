// Per-worker probe context: everything one scheduler worker owns.
//
// A ProbeContext is a full private replica of the live circuit state —
// Network clone (ids, tombstones and the recycled-id free stack preserved),
// Placement copy, and an Sta that ADOPTS the live engine's timing state
// byte-for-byte instead of recomputing it — plus its own RewireEngine,
// ProbeScratch, RNG substream and statistics shard. Workers therefore probe
// with zero shared mutable state: no locks on the hot path, no data races,
// and — because a probe is a pure function of replica state and every
// replica is synced to the same live state — bit-identical results no
// matter which worker evaluates which candidate. That last property is what
// lets `--threads N` reproduce `--threads 1` exactly.
//
// Lifecycle: sync() re-replicates after the live epoch advances (commits
// invalidate replicas); probe results remain valid within one epoch.
#pragma once

#include <cstdint>
#include <memory>

#include "engine/rewire_engine.hpp"
#include "util/rng.hpp"

namespace rapids {

/// Replica sync cost counters, accumulated per context and harvested by the
/// scheduler (addable so per-worker shards merge into one view).
struct ReplicaSyncStats {
  std::uint64_t syncs = 0;          // sync() calls
  std::uint64_t full_syncs = 0;     // clone + copy_state_from path
  std::uint64_t delta_syncs = 0;    // journal replay path
  std::uint64_t delta_commits = 0;  // commit epochs the delta syncs spanned
  std::uint64_t bytes_full = 0;     // estimated bytes moved by full syncs
  std::uint64_t bytes_delta = 0;    // estimated bytes moved by delta syncs
  double seconds = 0.0;             // wall time inside sync()

  ReplicaSyncStats& operator+=(const ReplicaSyncStats& o) {
    syncs += o.syncs;
    full_syncs += o.full_syncs;
    delta_syncs += o.delta_syncs;
    delta_commits += o.delta_commits;
    bytes_full += o.bytes_full;
    bytes_delta += o.bytes_delta;
    seconds += o.seconds;
    return *this;
  }
};

class ProbeContext {
 public:
  /// `worker` indexes the RNG substream (see Rng::substream); `base_seed`
  /// is the flow seed, so parallel runs are reproducible end to end.
  ProbeContext(const CellLibrary& lib, std::uint64_t base_seed, int worker);
  ~ProbeContext();
  ProbeContext(const ProbeContext&) = delete;
  ProbeContext& operator=(const ProbeContext&) = delete;

  /// Re-replicate from the live engine's state. Must be called from a
  /// single thread per context (the scheduler syncs each worker's context
  /// on that worker); `source` is read-only here. `with_partition` adopts a
  /// slot-exact copy of the live partition — required before the replica
  /// probes any CrossSg move (those resolve partition slots), pure waste
  /// otherwise (the common swap/resize rounds never read it), so the
  /// scheduler passes its per-round any-cross flag.
  ///
  /// With delta sync on (the default) and the source journal covering the
  /// replica's epoch, only the committed rounds' dirty gates, STA slices
  /// and free-stack state are adopted — O(dirty), not O(network) — with a
  /// transparent fallback to the full clone path otherwise. Both paths
  /// leave the replica bit-identical for probe arithmetic.
  void sync(RewireEngine& source, bool with_partition = true);

  /// Delta-sync escape hatch (A/B lever): when off, every sync takes the
  /// full clone path — the pre-delta behavior.
  void set_delta_sync(bool on) { delta_sync_ = on; }
  bool delta_sync() const { return delta_sync_; }

  /// Tracer this context's sync spans and replica engine record into. The
  /// scheduler wires its session's tracer here; replicas rebuilt by later
  /// sync()s inherit it. Null (the default) records nothing.
  void set_tracer(Tracer* tracer);

  /// Sync cost counters since the last harvest; resets the window.
  ReplicaSyncStats take_sync_stats() {
    const ReplicaSyncStats window = sync_stats_;
    sync_stats_ = ReplicaSyncStats{};
    return window;
  }

  /// Read-only views over the replica state, for differential tests that
  /// assert delta-synced replicas match clone-synced ones byte for byte.
  const Network& replica_net() const { return net_; }
  const Sta& replica_sta() const { return *sta_; }
  const Placement& replica_placement() const { return pl_; }

  /// True when this replica reflects live epoch `epoch`.
  bool synced_to(std::uint64_t epoch) const { return has_state_ && epoch_ == epoch; }

  /// True when this replica reflects the live engine's CURRENT state — the
  /// commit epoch AND the Sta state version. The epoch alone is not enough:
  /// an out-of-band run_full (journal restart, delta-sync fallback) rebuilds
  /// the live timing state without advancing the commit epoch, so a replica
  /// adopted "late" in the same epoch would otherwise keep pre-restart
  /// arrivals and probe against stale timing. The scheduler's skip-sync fast
  /// path must use this, never bare synced_to().
  bool in_sync_with(RewireEngine& source) const;

  /// Late partition adoption for a replica synced without one (a cross-sg
  /// round following a plain round in the same epoch).
  void adopt_partition_from(RewireEngine& source);
  bool partition_adopted() const { return partition_adopted_; }

  /// True when the adopted partition copy still matches the live one.
  /// partition_adopted() alone is not enough: invalidate_partition() + a
  /// rebuild renumbers slots and advances the partition's monotone
  /// generation stamp WITHOUT advancing the commit epoch, so a replica that
  /// adopted before the rebuild would resolve CrossSg slots against stale
  /// numbering. The generation stamp is never reset, so equality is exact.
  bool partition_current(RewireEngine& source) const;

  /// The replica engine (valid after the first sync). Probe through
  /// probe_with(scratch(), move) — commits on a replica are meaningless and
  /// must go through the live engine's arbiter instead.
  RewireEngine& engine() { return *engine_; }
  ProbeScratch& scratch() { return scratch_; }
  /// This worker's RNG substream. The deterministic probe pipeline draws
  /// nothing from it today; any future stochastic worker step must draw
  /// from here (never from a shared Rng) to preserve the thread-count
  /// independence contract.
  Rng& rng() { return rng_; }

  /// Replica probe counters accumulated since the last harvest; resets the
  /// window. The scheduler folds these into the live engine's totals.
  EngineStats take_stats();

  /// Replica proof-session counters since the last harvest (zero when the
  /// replica is not in paranoid session mode); merged into the live
  /// engine's session stats by the scheduler.
  sat::ProofSessionStats take_session_stats() {
    return engine_ ? engine_->take_session_stats() : sat::ProofSessionStats{};
  }

  /// Replica partition-maintenance counters since the last harvest (zero in
  /// steady state: replicas adopt the live partition instead of
  /// extracting); merged into the live engine's totals by the scheduler.
  PartitionStats take_partition_stats() {
    return engine_ ? engine_->take_partition_stats() : PartitionStats{};
  }

 private:
  const CellLibrary& lib_;
  Rng rng_;
  Tracer* tracer_ = nullptr;

  Network net_;
  Placement pl_;
  std::unique_ptr<Sta> sta_;
  std::unique_ptr<RewireEngine> engine_;
  ProbeScratch scratch_;

  std::uint64_t epoch_ = 0;
  bool has_state_ = false;
  bool partition_adopted_ = false;
  /// Generation stamp of the live partition at the last adoption; compared
  /// against the live stamp to detect mid-epoch rebuilds (see
  /// partition_current()).
  std::uint64_t partition_generation_ = 0;
  bool delta_sync_ = true;
  /// Source Sta state version captured at the last full sync; a mismatch
  /// (the live side ran run_full) forces the next sync down the full path.
  std::uint64_t sta_version_ = 0;
  EngineStats harvested_;
  ReplicaSyncStats sync_stats_;
  // Reused delta-id scratch (cleared, never shrunk, per sync).
  std::vector<GateId> delta_gates_;
  std::vector<GateId> delta_arr_;
  std::vector<GateId> delta_nets_;
  std::vector<GateId> delta_dirty_;
  // Generation-stamped seen-set for deduplicating the delta ids: an id is
  // new to the current list while its stamp differs from dedup_gen_.
  std::vector<std::uint32_t> dedup_stamp_;
  std::uint32_t dedup_gen_ = 0;
  /// Drop repeated ids from `ids`, then sort the survivors ascending.
  void dedup_sorted(std::vector<GateId>& ids);
};

}  // namespace rapids
