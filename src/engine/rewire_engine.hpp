// RewireEngine — the one transactional probe/commit/rollback surface for
// post-placement moves (paper §5's inner loop).
//
// The paper's pitch is that symmetry-based rewiring is FAST: thousands of
// candidate moves are evaluated per circuit by applying a move, incrementally
// re-timing, reading the objective and rolling back exactly. The seed
// repository re-implemented that choreography in every caller (optimizer
// phases, sizing, benches); this engine owns it once, over both move
// kinds:
//
//   Swap    — pin swap inside one supergate (rewire/swap)
//   Resize  — drive-strength reassignment    (sizing)
//
// Cross-supergate group exchanges (rewire/cross_sg, Theorem 2) are not an
// engine move: the paper leaves them out of its optimizer, and so does the
// flow.
//
// The engine also owns the GisgPartition lifecycle. The partition is a
// LONG-LIVED index maintained incrementally: every commit records its
// affected gates (the rewired pins, old/new drivers, created inverters and
// their fanout frontier) into a dirty set, and the next partition() call
// re-extracts only the intersecting fanout-free regions (sym/gisg's
// reextract_region), splicing them into stable supergate slots. Candidates
// extracted before a commit are stale exactly when their supergate's slot
// generation changed (see rewire/swap.hpp's contract); the epoch remains as
// the coarse whole-partition counter, and invalidate_partition() as the
// full-rebuild escape hatch for out-of-engine mutations.
//
// Probing is allocation-free after warm-up: the swap edit record, the
// dirty-net scratch and the STA journal all reuse their storage, which is
// what bench/micro_engine gauges.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <type_traits>
#include <variant>
#include <vector>

#include "library/cell_library.hpp"
#include "netlist/network.hpp"
#include "place/placement.hpp"
#include "rewire/swap.hpp"
#include "sat/proof_session.hpp"
#include "sat/window.hpp"
#include "sym/gisg.hpp"
#include "sym/symmetry.hpp"
#include "timing/sta.hpp"
#include "trace/metrics.hpp"
#include "util/stats.hpp"

namespace rapids {

class Tracer;

/// The two timing objectives every probe reports (phase A optimizes
/// `critical`, phase B the relaxation objective `sum_po`).
struct EngineObjective {
  double critical = 0.0;
  double sum_po = 0.0;
  /// Set when probe_with() cut the probe short, proving the move cannot
  /// pass its caller's rejection line: either no seed of the move touched
  /// the critical-path mask (`critical` and `sum_po` then hold the
  /// unchanged baseline, and the true probed critical delay is >= it), or
  /// propagation stopped at the probe's bound (the true probed critical
  /// delay is > the bound; `critical` and `sum_po` are partial).
  bool pruned = false;
};

/// One candidate transformation, uniformly over both move kinds: a plain
/// value with its payload inline. A round holds one move per candidate swap
/// of every supergate, so the size is pinned below.
class EngineMove {
 public:
  /// Order matches the payload alternatives (kind() reads the index).
  enum class Kind : std::uint8_t { Swap, Resize };

  /// A default move is a Swap over an empty candidate (a GroupResult with
  /// no winner holds one).
  EngineMove() = default;

  static EngineMove swap(const SwapCandidate& c) { return EngineMove(c); }
  static EngineMove resize(GateId g, int cell) { return EngineMove(Resize{g, cell}); }

  Kind kind() const { return static_cast<Kind>(payload_.index()); }
  const SwapCandidate& swap_cand() const { return std::get<SwapCandidate>(payload_); }
  GateId gate() const { return std::get<Resize>(payload_).gate; }       // Resize
  int new_cell() const { return std::get<Resize>(payload_).new_cell; }  // Resize

  /// Value equality: same kind and same candidate.
  friend bool operator==(const EngineMove&, const EngineMove&) = default;

 private:
  struct Resize {
    GateId gate = kNullGate;
    int new_cell = -1;
    friend bool operator==(const Resize&, const Resize&) = default;
  };

  template <class P>
  explicit EngineMove(P payload) : payload_(payload) {}

  std::variant<SwapCandidate, Resize> payload_;
};
static_assert(sizeof(EngineMove) <= 32, "EngineMove must stay a 32-byte value");
static_assert(std::is_trivially_copyable_v<EngineMove>, "EngineMove must stay a plain value");

/// Paranoid-mode prover configuration.
struct ParanoidOptions {
  /// Persistent incremental proof session (sat/proof_session.hpp) instead
  /// of one throwaway solver+encoding per move (sat/window.hpp). Both
  /// prove the same move set; the session amortizes encodings and learned
  /// clauses across the run. Default on; `flow --no-sat-session` is the
  /// escape hatch.
  bool session = true;
  /// Conflict budget per window-root miter (< 0: unlimited).
  std::int64_t window_conflict_limit = 1'000'000;
  /// Conflict budget per PO for the full-miter escalation tier.
  std::int64_t miter_conflict_limit = 4'000'000;
};

/// Per-commit proof outcome, recorded in order so differential tests can
/// assert session mode and per-move mode prove the SAME move set
/// move-for-move.
enum class ProofVerdict : std::uint8_t {
  WindowProved,     // window miter UNSAT (structurally or by SAT)
  EscalatedProved,  // window failed, whole-network miter proved; move kept
  Inconclusive,     // even the full miter ran out of budget; move rejected
};

/// Commit and probe counters, accumulated across the engine's lifetime.
/// Addable so per-worker replicas can be merged into the live engine's
/// counters on demand.
struct EngineStats : NamedStats<EngineStats> {
  int swaps_committed = 0;
  int resizes_committed = 0;
  int inverters_added = 0;
  std::uint64_t probes = 0;
  /// Probes (counted in `probes`) that skipped propagation because their
  /// seeds all missed the critical-path mask.
  std::uint64_t probes_pruned = 0;
  /// Probes (counted in `probes`) whose propagation stopped once the
  /// critical delay was proved to exceed the probe's bound.
  std::uint64_t probes_bounded = 0;
  // Propagation-shape counters sampled from the Sta: queue pops across
  // all probe/commit transactions, margin suppressions, PO-decrease
  // fallback replays, and damping-margin refreshes.
  std::uint64_t gates_propagated = 0;
  std::uint64_t damp_cutoffs = 0;
  std::uint64_t damp_fallbacks = 0;
  std::uint64_t margin_refreshes = 0;

  static constexpr auto fields() {
    using S = EngineStats;
    return std::tuple{StatField{"engine.pin_swaps_committed", &S::swaps_committed},
                      StatField{"engine.resizes_committed", &S::resizes_committed},
                      StatField{"engine.inverters_added", &S::inverters_added},
                      StatField{"engine.probes", &S::probes},
                      StatField{"timing.probes_pruned", &S::probes_pruned},
                      StatField{"timing.probes_bounded", &S::probes_bounded},
                      StatField{"timing.gates_propagated", &S::gates_propagated},
                      StatField{"timing.damp_cutoffs", &S::damp_cutoffs},
                      StatField{"timing.damp_fallbacks", &S::damp_fallbacks},
                      StatField{"timing.margin_refreshes", &S::margin_refreshes}};
  }
};

/// Reusable move-application scratch: the edit/undo records one probe or
/// commit needs. Split out of the engine so each logical probe stream (the
/// engine's own loop, every parallel ProbeContext, the commit arbiter) owns
/// its storage — the precondition for fanning probe evaluation out across
/// workers without sharing mutable engine state. Never shrinks; a steady
/// probe loop through one scratch allocates nothing.
struct ProbeScratch {
  SwapEdit swap_edit;
  std::vector<GateId> dirty_scratch;
  int saved_cell = -1;
};

/// A gain-ranked move for batch commit (gain measured against the batch's
/// common baseline).
struct RankedMove {
  EngineMove move;
  double gain = 0.0;
};

class RewireEngine {
 public:
  /// All references must outlive the engine. `sta` must be bound to
  /// (net, lib, placement). Gate-id recycling is enabled on `net` for the
  /// engine's lifetime (restored on destruction).
  RewireEngine(Network& net, Placement& placement, const CellLibrary& lib, Sta& sta);
  ~RewireEngine();
  RewireEngine(const RewireEngine&) = delete;
  RewireEngine& operator=(const RewireEngine&) = delete;

  Network& net() { return net_; }
  Placement& placement() { return placement_; }
  Sta& sta() { return sta_; }
  const CellLibrary& lib() const { return lib_; }

  /// Tracer this engine's spans and its proof session's instants record
  /// into: the run's session tracer, wired by the optimizer (live engine)
  /// and the probe contexts (replicas). Null (the default, e.g. an engine
  /// built by a unit test) records nothing.
  void set_tracer(Tracer* tracer);

  // --- partition lifecycle -------------------------------------------------

  /// Current supergate partition, maintained lazily: the first call (or the
  /// first after invalidate_partition()) runs a full extraction; later
  /// calls splice committed moves' dirty regions into the persistent
  /// partition incrementally — O(affected region), not O(network). Slots of
  /// untouched supergates keep their index and generation across commits.
  const GisgPartition& partition();

  /// Force full re-extraction on the next partition() call. Commits no
  /// longer need this (they accumulate dirty regions instead); call it
  /// after mutating the network OUTSIDE the engine (redundancy removal,
  /// dangling-inverter cleanup, buffering, ...) — in particular after ANY
  /// gate deletion, which incremental maintenance does not model. An
  /// external mutation also invalidates every cone the paranoid proof
  /// session cached (the session only tracks the proved commit stream), so
  /// the session cache is wiped here too.
  void invalidate_partition() {
    partition_valid_ = false;
    pending_dirty_.clear();
    sync_journal_valid_ = false;
    if (session_) session_->invalidate_all();
  }

  /// Incremental maintenance switch (default on). When off, every commit
  /// invalidates the whole partition and the next partition() call pays a
  /// full O(network) re-extraction — the pre-incremental behavior, kept as
  /// an A/B lever for bench/incremental_extract and as a fallback.
  void set_incremental_extraction(bool on) { incremental_on_ = on; }
  bool incremental_extraction() const { return incremental_on_; }

  /// Self-check mode: after every incremental partition update, run a full
  /// extraction and require canonical equality (throws InternalError with a
  /// diagnostic on mismatch). O(network) per commit — for tests and the
  /// fuzzer's extract-diff row only.
  void set_extract_diff(bool on) { extract_diff_ = on; }

  /// Partition maintenance counters over the engine's lifetime.
  const PartitionStats& partition_stats() const { return pstats_; }

  /// Bumped by every commit. Moves remain probe/undo safe across epochs
  /// (they reference gates, which have stable ids).
  std::uint64_t epoch() const { return epoch_; }

  // --- replica delta sync ---------------------------------------------------

  /// True when the sync journal can replay every commit in (from_epoch,
  /// epoch()] — i.e. a replica that last synced at `from_epoch` can adopt
  /// the delta instead of re-cloning the whole network. False after
  /// invalidate_partition(), commit_and_revert(), or a commit made with
  /// incremental extraction off; the journal restarts at the next clean
  /// commit, so replicas pay one full sync and then return to deltas.
  bool sync_delta_available(std::uint64_t from_epoch) const {
    return sync_journal_valid_ && from_epoch >= sync_base_epoch_ &&
           from_epoch <= epoch_;
  }

  /// Append the ids every commit in (from_epoch, epoch()] changed:
  /// `gates` — structural rows (type/cell/fanins/fanouts) for
  /// Network::adopt_structural_delta; `arrivals`/`nets` — the STA slices for
  /// Sta::adopt_delta. Lists may repeat ids across commits; adoption is
  /// idempotent.
  void collect_sync_delta(std::uint64_t from_epoch, std::vector<GateId>& gates,
                          std::vector<GateId>& arrivals,
                          std::vector<GateId>& nets) const;

  // --- transactional move evaluation ---------------------------------------

  /// Evaluate `move` inside an STA transaction and roll everything back
  /// exactly (network, placement, timing). Thousands of probes per second;
  /// allocation-free after warm-up.
  EngineObjective probe(const EngineMove& move);

  /// As probe(), but through a caller-owned scratch. The result is a pure
  /// function of (network/placement/timing state, move): the probe restores
  /// the network, placement, STA journal AND the recycled-id free stack
  /// exactly, so interleaving probes from different scratches — or
  /// replaying them on a state replica — yields bit-identical objectives.
  ///
  /// `critical_mask` (id-indexed, nonzero = on the current critical path;
  /// empty = no pruning) lets a caller that only accepts a positive
  /// critical-delay gain skip hopeless moves: when every seed of the move
  /// misses the mask, the edit is undone and rolled back without
  /// propagating and the result is marked `pruned` (see Sta::seeds_avoid
  /// for why the probed critical delay cannot drop below the baseline).
  ///
  /// `abort_above` is the caller's rejection line for the probed critical
  /// delay (Sta::kNoBound = none): a damped probe whose propagation proves
  /// the critical delay exceeds it stops early and is marked `pruned` too
  /// (Sta::propagate's cut-off 3). Undamped probes ignore it.
  EngineObjective probe_with(ProbeScratch& scratch, const EngineMove& move,
                             std::span<const std::uint8_t> critical_mask = {},
                             double abort_above = Sta::kNoBound);

  /// Apply `move` and keep it. Bumps the epoch and invalidates the
  /// partition. Returns the post-commit objective. In paranoid mode the
  /// move is first SAT-proved function-preserving on its invalidated cone;
  /// a confirmed functional change rolls the move back and throws
  /// InternalError, while an escalated full miter that exhausts its
  /// conflict budget rolls back and rejects just this move (counted in
  /// paranoid_inconclusive()).
  EngineObjective commit(const EngineMove& move);

  /// Verify-every-commit mode: each committed Swap move is proved
  /// function-preserving at its supergate root before it is kept — by the
  /// persistent ProofSession (options.session, the default) or by a
  /// throwaway per-move WindowChecker. Resize moves do not change logic
  /// and are exempt. All commit paths — serial, parallel arbitration,
  /// commit_best — run through this check.
  void set_paranoid(bool on) { set_paranoid(on, ParanoidOptions{}); }
  void set_paranoid(bool on, const ParanoidOptions& options);
  bool paranoid() const { return paranoid_on_; }
  bool paranoid_session_mode() const { return paranoid_on_ && paranoid_options_.session; }
  const ParanoidOptions& paranoid_options() const { return paranoid_options_; }

  /// Per-move prover counters (null when that prover is not active).
  const sat::WindowCheckerStats* paranoid_stats() const {
    return paranoid_ ? &paranoid_->stats() : nullptr;
  }
  /// Session prover counters: this engine's own session plus everything
  /// absorbed from per-worker replica sessions (null when paranoid session
  /// mode is off or no proof has run yet — provers build lazily).
  const sat::ProofSessionStats* session_stats() const {
    return session_ ? &merged_session_stats() : nullptr;
  }
  /// The live session itself (solver-level stats for benches; null unless
  /// session mode).
  const sat::ProofSession* proof_session() const { return session_.get(); }
  /// Moves checked by whichever paranoid prover is active.
  std::uint64_t paranoid_moves_checked() const;
  /// Moves rejected because even the escalated full miter ran out of
  /// conflict budget (neither proved nor refuted).
  std::uint64_t paranoid_inconclusive() const { return paranoid_inconclusive_; }
  /// Ordered per-commit proof outcomes (empty unless paranoid). Session
  /// and per-move modes must produce identical sequences on the same
  /// commit stream — the property the differential tests pin.
  const std::vector<ProofVerdict>& paranoid_verdicts() const {
    return paranoid_verdicts_;
  }
  /// Distribution of SAT conflicts per proved commit (paranoid only; counts
  /// window + any escalation work attributed to one move).
  const Histogram& proof_conflict_hist() const { return proof_conflict_hist_; }

  /// Merge a replica engine's counters (probe workers evaluate on replicas;
  /// their probe counts belong to this engine's lifetime totals).
  void absorb_stats(const EngineStats& s) { stats_ += s; }
  /// Merge a replica engine's proof-session counters (per-worker sessions;
  /// the scheduler harvests them alongside EngineStats).
  void absorb_session_stats(const sat::ProofSessionStats& s) {
    absorbed_session_stats_ += s;
  }
  /// This engine's session counters accumulated since the last harvest;
  /// resets the window (replica-side pair of absorb_session_stats).
  sat::ProofSessionStats take_session_stats() {
    return session_ ? sat::ProofSessionStats::take_window(session_->stats(),
                                                          session_harvested_)
                    : sat::ProofSessionStats{};
  }

  /// Bench helper: commit `move`, then commit its exact inverse, leaving
  /// the circuit in its pre-call state (two committed transactions).
  void commit_and_revert(const EngineMove& move);

  /// Gain-sorted greedy commit with re-validation: probes each ranked move
  /// against the CURRENT state and commits it only if it still improves the
  /// critical delay by more than `min_gain` (earlier commits may have
  /// absorbed the gain). Returns the number committed.
  ///
  /// NOTE: the ranked moves must be derived from the current partition
  /// state and at most one swap per supergate may appear (the
  /// stale-candidate contract); the optimizer's per-group "best move"
  /// selection guarantees both.
  int commit_best(std::vector<RankedMove>& ranked, double min_gain);

  const EngineStats& stats() const { return stats_; }
  void reset_stats() { stats_ = EngineStats{}; }

  // --- bounded-cone damped probing -----------------------------------------

  /// Enable slack-margin damped propagation for probes (commits always run
  /// undamped so the stored inter-transaction state stays the exact fixed
  /// point everything else — margin refresh, arrival-gap pruning, replica
  /// sync — reads). Objective-exact by construction; `--no-timing-damp` is
  /// the A/B hatch.
  void set_timing_damp(bool on) { timing_damp_ = on; }
  bool timing_damp() const { return timing_damp_; }
  /// Arm the Sta-level damped-vs-undamped PO differential on every damped
  /// probe (throws InternalError on any mismatch).
  void set_timing_damp_diff(bool on) { sta_.set_damp_diff(on); }
  /// Refresh the Sta's damping margins if stale (round granularity; no-op
  /// when damping is off) and pull the Sta's propagation counters into
  /// this engine's stats window.
  void refresh_timing_margins();

 private:
  /// Apply the move's network edit and mark dirty timing state. Fills the
  /// scratch's reusable undo records.
  void apply_and_invalidate(ProbeScratch& scratch, const EngineMove& move);
  /// Exact inverse of apply_and_invalidate's network edit (STA rollback is
  /// separate).
  void undo_network_edit(ProbeScratch& scratch, const EngineMove& move);
  void invalidate_dirty(ProbeScratch& scratch, std::span<const GateId> dirty);
  void count_commit(const EngineMove& move);
  /// Record a committed move's affected gates (and their fanout frontier)
  /// into the pending dirty set consumed by the next partition() call.
  /// Must run before count_commit() detaches the edit records.
  void mark_commit_dirty(const EngineMove& move);
  /// Append this commit's changed structural rows and STA transaction ids
  /// to the replica sync journal. Must run while the STA transaction is
  /// still open and before count_commit() detaches the edit records.
  void record_sync_journal(const EngineMove& move);
  /// Paranoid mode: derive the move's exact rewired-gate set (throwaway
  /// apply/undo) and encode the pre-move window of its observation root.
  void begin_paranoid_proof(const EngineMove& move);

  Network& net_;
  Placement& placement_;
  const CellLibrary& lib_;
  Sta& sta_;

  GisgPartition partition_;
  bool partition_valid_ = false;
  std::uint64_t epoch_ = 0;
  /// Gates touched by commits since the last partition() materialization;
  /// consumed (and cleared) by the next incremental update.
  std::vector<GateId> pending_dirty_;
  /// Reusable region-update scratch: keeps incremental partition updates
  /// allocation-free (stamped visit arrays, held-capacity worklists).
  GisgRegionScratch gisg_scratch_;
  bool incremental_on_ = true;
  bool extract_diff_ = false;
  PartitionStats pstats_;

  EngineStats stats_;
  bool timing_damp_ = true;
  // Cursor over the Sta's monotonic propagation counters: the Sta outlives
  // engine stat windows (and replica engines share one Sta per context), so
  // each engine folds only the delta since its last sample into stats_.
  std::uint64_t sta_seen_gates_propagated_ = 0;
  std::uint64_t sta_seen_damp_cutoffs_ = 0;
  std::uint64_t sta_seen_damp_fallbacks_ = 0;
  std::uint64_t sta_seen_margin_refreshes_ = 0;
  /// Fold (sta counters − cursor) into stats_ and advance the cursor.
  void sample_sta_counters();

  // Replica-sync journal: flat append-only per-commit records (structural
  // rows, STA arrival/net ids) plus one end-offset mark per epoch. Replicas
  // replay the suffix past their last-synced epoch; any event the journal
  // cannot model (external mutation, reverted bench commits, incremental
  // extraction off) simply invalidates it and the next sync falls back to
  // the full clone path.
  struct SyncMark {
    std::uint64_t epoch = 0;
    std::uint32_t gates_end = 0;
    std::uint32_t arr_end = 0;
    std::uint32_t nets_end = 0;
  };
  bool sync_journal_valid_ = false;
  std::uint64_t sync_base_epoch_ = 0;
  std::vector<GateId> sync_gates_;
  std::vector<GateId> sync_arr_;
  std::vector<GateId> sync_nets_;
  std::vector<SyncMark> sync_marks_;

  // The engine's own probe/commit scratch (never shrinks; steady state
  // allocates nothing). External probe streams pass their own through
  // probe_with().
  ProbeScratch scratch_;
  bool prev_recycling_ = false;

  /// Construct the configured prover if it does not exist yet (lazy:
  /// replica engines carry the configuration but never prove).
  void ensure_prover();

  Tracer* tracer_ = nullptr;

  // Paranoid-mode move provers (at most one non-null — per-move window
  // checker or persistent proof session — created lazily by the first
  // proof) and the reusable scratch for the changed/created gate sets of
  // the move under proof.
  std::unique_ptr<sat::WindowChecker> paranoid_;
  std::unique_ptr<sat::ProofSession> session_;
  bool paranoid_on_ = false;
  ParanoidOptions paranoid_options_;
  std::vector<GateId> paranoid_changed_;
  std::vector<GateId> paranoid_created_;
  std::uint64_t paranoid_inconclusive_ = 0;
  std::vector<ProofVerdict> paranoid_verdicts_;
  Histogram proof_conflict_hist_;
  // Per-worker session merge: counters absorbed from replicas plus the
  // harvest cursor for this engine's own session (replica side).
  sat::ProofSessionStats absorbed_session_stats_;
  sat::ProofSessionStats session_harvested_;
  const sat::ProofSessionStats& merged_session_stats() const;
  mutable sat::ProofSessionStats merged_session_scratch_;
};

}  // namespace rapids
