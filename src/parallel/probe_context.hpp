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
#include <utility>

#include "engine/rewire_engine.hpp"
#include "util/rng.hpp"

namespace rapids {

/// Replica sync cost counters, accumulated per context and harvested by the
/// scheduler (addable so per-worker shards merge into one view).
struct ReplicaSyncStats : NamedStats<ReplicaSyncStats> {
  std::uint64_t syncs = 0;          // sync() calls
  std::uint64_t full_syncs = 0;     // clone + copy_state_from path
  std::uint64_t delta_syncs = 0;    // journal replay path
  std::uint64_t delta_commits = 0;  // commit epochs the delta syncs spanned
  std::uint64_t bytes_full = 0;     // estimated bytes moved by full syncs
  std::uint64_t bytes_delta = 0;    // estimated bytes moved by delta syncs
  double seconds = 0.0;             // wall time inside sync()

  static constexpr auto fields() {
    using S = ReplicaSyncStats;
    return std::tuple{StatField{"sync.syncs", &S::syncs},
                      StatField{"sync.full_syncs", &S::full_syncs},
                      StatField{"sync.delta_syncs", &S::delta_syncs},
                      StatField{"sync.delta_commits", &S::delta_commits},
                      StatField{"sync.bytes_full", &S::bytes_full},
                      StatField{"sync.bytes_delta", &S::bytes_delta},
                      StatField{"time.sync_s", &S::seconds}};
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
  /// on that worker); `source` is read-only here. The replica never reads
  /// its own partition (probes resolve gates, not supergate slots), so no
  /// partition is copied.
  ///
  /// With delta sync on (the default) and the source journal covering the
  /// replica's epoch, only the committed rounds' dirty gates, STA slices
  /// and free-stack state are adopted — O(dirty), not O(network) — with a
  /// transparent fallback to the full clone path otherwise. Both paths
  /// leave the replica bit-identical for probe arithmetic.
  void sync(RewireEngine& source);

  /// Delta-sync escape hatch (A/B lever): when off, every sync takes the
  /// full clone path — the pre-delta behavior.
  void set_delta_sync(bool on) { delta_sync_ = on; }
  bool delta_sync() const { return delta_sync_; }

  /// Tracer this context's sync spans and replica engine record into. The
  /// scheduler wires its session's tracer here; replicas rebuilt by later
  /// sync()s inherit it. Null (the default) records nothing.
  void set_tracer(Tracer* tracer);

  /// Sync cost counters since the last harvest; resets the window.
  ReplicaSyncStats take_sync_stats() { return std::exchange(sync_stats_, {}); }

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
  EngineStats take_stats() {
    return engine_ ? EngineStats::take_window(engine_->stats(), harvested_)
                   : EngineStats{};
  }

  /// Replica proof-session counters since the last harvest (zero when the
  /// replica is not in paranoid session mode); merged into the live
  /// engine's session stats by the scheduler.
  sat::ProofSessionStats take_session_stats() {
    return engine_ ? engine_->take_session_stats() : sat::ProofSessionStats{};
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
