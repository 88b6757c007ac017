#include "engine/rewire_engine.hpp"

#include <algorithm>

#include "trace/trace.hpp"
#include "util/assert.hpp"
#include "util/log.hpp"
#include "verify/equivalence.hpp"

namespace rapids {

namespace {
/// Free-stack floor maintained at construction and after every commit.
/// A single swap inserts at most two inverters, so 64 leaves ample room.
/// probe_with asserts the id space never grows mid-probe, so an overflow is
/// loud.
constexpr std::size_t kIdReserve = 64;
}  // namespace

RewireEngine::RewireEngine(Network& net, Placement& placement, const CellLibrary& lib,
                           Sta& sta)
    : net_(net), placement_(placement), lib_(lib), sta_(sta),
      prev_recycling_(net.id_recycling()) {
  // Probe loops insert and delete inverters at megahertz rates; recycling
  // tombstoned ids keeps id_bound() — and every id-indexed STA/placement
  // array — at a fixed size for the engine's lifetime.
  net_.set_id_recycling(true);
  // Pre-seed the recycled-id reserve so NO probe ever has to mint a fresh
  // id: ids key the star-net branch order (timing arithmetic), so an id
  // allocation that depended on how many probes already ran would make
  // probe objectives history-dependent — the parallel-vs-serial
  // determinism bug the differential fuzzer caught. Commits top the
  // reserve back up (commit histories are identical across worker counts).
  net_.reserve_recycled_ids(kIdReserve);
  // The Sta may predate this engine (replica contexts rebuild engines over
  // a persistent Sta): start the counter cursor at its current values so
  // stats_ only ever absorbs propagation work done under this engine.
  sta_seen_gates_propagated_ = sta_.gates_propagated();
  sta_seen_damp_cutoffs_ = sta_.damp_cutoffs();
  sta_seen_damp_fallbacks_ = sta_.damp_fallbacks();
  sta_seen_margin_refreshes_ = sta_.margin_refreshes();
}

void RewireEngine::sample_sta_counters() {
  stats_.gates_propagated += sta_.gates_propagated() - sta_seen_gates_propagated_;
  stats_.damp_cutoffs += sta_.damp_cutoffs() - sta_seen_damp_cutoffs_;
  stats_.damp_fallbacks += sta_.damp_fallbacks() - sta_seen_damp_fallbacks_;
  stats_.margin_refreshes += sta_.margin_refreshes() - sta_seen_margin_refreshes_;
  sta_seen_gates_propagated_ = sta_.gates_propagated();
  sta_seen_damp_cutoffs_ = sta_.damp_cutoffs();
  sta_seen_damp_fallbacks_ = sta_.damp_fallbacks();
  sta_seen_margin_refreshes_ = sta_.margin_refreshes();
}

void RewireEngine::refresh_timing_margins() {
  if (timing_damp_ && !sta_.margins_valid() && !sta_.in_transaction()) {
    sta_.refresh_damping_margins();
  }
  sample_sta_counters();
}

RewireEngine::~RewireEngine() { net_.set_id_recycling(prev_recycling_); }

void RewireEngine::set_tracer(Tracer* tracer) {
  tracer_ = tracer;
  // A prover built before the tracer was wired would keep emitting on the
  // old one; re-point it.
  if (session_) session_->set_tracer(tracer_);
}

const GisgPartition& RewireEngine::partition() {
  if (!partition_valid_) {
    TraceSpan extract_span(tracer_, "extract", "extract_full");
    // Probe undo restores fanout SETS, not their order; full extraction's
    // reverse-topological walk iterates fanouts, so without this
    // normalization the supergate indexing — and with it the scheduler's
    // (gain, group) canonical commit order — would depend on how many
    // probes the live engine ran (serial probes on the live net, parallel
    // probes on replicas: the differential fuzzer caught the resulting
    // --threads divergence). Incremental updates walk fanins and single
    // fanouts only, so they are order-independent by construction.
    net_.canonicalize_fanout_order();
    extract_gisg_into(partition_, net_);
    partition_valid_ = true;
    pending_dirty_.clear();
    ++pstats_.full_rebuilds;
  } else if (!pending_dirty_.empty()) {
    TraceSpan extract_span(tracer_, "extract", "extract_incremental");
    extract_span.set_arg("dirty_gates", static_cast<std::int64_t>(pending_dirty_.size()));
    pstats_ += reextract_region(partition_, net_, pending_dirty_, &gisg_scratch_);
    pending_dirty_.clear();
    if (extract_diff_) {
      // Differential self-check: the incrementally maintained partition
      // must be canonically identical to a fresh full extraction of the
      // current network.
      const GisgPartition fresh = extract_gisg(net_);
      std::string diag;
      if (!partitions_canonically_equal(partition_, fresh, &diag)) {
        throw InternalError("extract-diff mismatch: " + diag);
      }
    }
  }
  return partition_;
}

void RewireEngine::mark_commit_dirty(const EngineMove& move) {
  if (!incremental_on_) {
    partition_valid_ = false;
    return;
  }
  // Nothing to record while the partition awaits a full rebuild anyway.
  if (!partition_valid_) return;
  // A touched gate's own supergate must be re-derived, and so must the
  // supergates of its CURRENT fanout gates: a fanout-count change flips the
  // gate's absorbability, which is owned by the covering supergate above it
  // (sym/gisg's region closure catches anything subtler).
  auto touch = [this](GateId g) {
    if (g == kNullGate || g >= net_.id_bound() || net_.is_deleted(g)) return;
    pending_dirty_.push_back(g);
    for (const Pin& p : net_.fanouts(g)) pending_dirty_.push_back(p.gate);
  };
  switch (move.kind()) {
    case EngineMove::Kind::Swap: {
      const SwapCandidate& c = move.swap_cand();
      touch(c.pin_a.gate);
      touch(c.pin_b.gate);
      touch(net_.driver_of(c.pin_a));
      touch(net_.driver_of(c.pin_b));
      // dirty_nets holds the old drivers, reused inverter inputs and added
      // inverters — every driver whose fanout set changed.
      for (const GateId d : scratch_.swap_edit.dirty_nets) touch(d);
      for (const GateId g : scratch_.swap_edit.added_inverters) touch(g);
      break;
    }
    case EngineMove::Kind::Resize:
      // Cell bindings are invisible to extraction: a resize leaves the
      // partition untouched (the first commit kind with zero re-extraction
      // cost — GS-heavy flows reuse every supergate across rounds).
      break;
  }
}

void RewireEngine::record_sync_journal(const EngineMove& move) {
  // With incremental extraction off (or the partition awaiting a full
  // rebuild) the journal restarts: replicas full-sync until the next clean
  // commit.
  if (!incremental_on_ || !partition_valid_) {
    sync_journal_valid_ = false;
    return;
  }
  if (!sync_journal_valid_) {
    sync_journal_valid_ = true;
    sync_base_epoch_ = epoch_;  // pre-increment: this commit becomes epoch_+1
    sync_gates_.clear();
    sync_arr_.clear();
    sync_nets_.clear();
    sync_marks_.clear();
  }
  auto row = [this](GateId g) {
    if (g != kNullGate) sync_gates_.push_back(g);
  };
  switch (move.kind()) {
    case EngineMove::Kind::Swap: {
      const SwapCandidate& c = move.swap_cand();
      row(c.pin_a.gate);
      row(c.pin_b.gate);
      row(net_.driver_of(c.pin_a));
      row(net_.driver_of(c.pin_b));
      for (const GateId d : scratch_.swap_edit.dirty_nets) row(d);
      for (const GateId g : scratch_.swap_edit.added_inverters) row(g);
      break;
    }
    case EngineMove::Kind::Resize:
      row(move.gate());  // cell binding changed
      break;
  }
  sta_.append_txn_changed_ids(sync_arr_, sync_nets_);
  sync_marks_.push_back({epoch_ + 1, static_cast<std::uint32_t>(sync_gates_.size()),
                         static_cast<std::uint32_t>(sync_arr_.size()),
                         static_cast<std::uint32_t>(sync_nets_.size())});
}

void RewireEngine::collect_sync_delta(std::uint64_t from_epoch,
                                      std::vector<GateId>& gates,
                                      std::vector<GateId>& arrivals,
                                      std::vector<GateId>& nets) const {
  RAPIDS_ASSERT_MSG(sync_delta_available(from_epoch),
                    "collect_sync_delta outside the journal's window");
  // One mark per commit since the journal (re)started: the suffix past
  // `from_epoch` starts right after mark (from_epoch - base - 1).
  const std::size_t skip = static_cast<std::size_t>(from_epoch - sync_base_epoch_);
  RAPIDS_ASSERT(skip <= sync_marks_.size());
  const SyncMark start = skip == 0 ? SyncMark{} : sync_marks_[skip - 1];
  gates.insert(gates.end(), sync_gates_.begin() + start.gates_end, sync_gates_.end());
  arrivals.insert(arrivals.end(), sync_arr_.begin() + start.arr_end, sync_arr_.end());
  nets.insert(nets.end(), sync_nets_.begin() + start.nets_end, sync_nets_.end());
}

void RewireEngine::invalidate_dirty(ProbeScratch& scratch,
                                    std::span<const GateId> dirty) {
  // Deduplicate into the reusable scratch without sorting: dirty sets are
  // tiny (2-6 entries for swaps), a linear containment check beats
  // sort+unique and allocates nothing.
  scratch.dirty_scratch.clear();
  for (const GateId d : dirty) {
    if (std::find(scratch.dirty_scratch.begin(), scratch.dirty_scratch.end(), d) ==
        scratch.dirty_scratch.end()) {
      scratch.dirty_scratch.push_back(d);
    }
  }
  for (const GateId d : scratch.dirty_scratch) sta_.invalidate_net(d);
}

void RewireEngine::apply_and_invalidate(ProbeScratch& scratch,
                                        const EngineMove& move) {
  switch (move.kind()) {
    case EngineMove::Kind::Swap: {
      apply_swap_into(net_, placement_, lib_, move.swap_cand(), scratch.swap_edit);
      invalidate_dirty(scratch, scratch.swap_edit.dirty_nets);
      break;
    }
    case EngineMove::Kind::Resize: {
      scratch.saved_cell = net_.cell(move.gate());
      net_.set_cell(move.gate(), move.new_cell());
      // Input pin caps changed: every fanin net sees a new load; the gate's
      // own drive changed as well.
      invalidate_dirty(scratch, net_.fanins(move.gate()));
      sta_.touch_gate(move.gate());
      break;
    }
  }
}

void RewireEngine::undo_network_edit(ProbeScratch& scratch, const EngineMove& move) {
  switch (move.kind()) {
    case EngineMove::Kind::Swap:
      undo_swap(net_, placement_, scratch.swap_edit);
      break;
    case EngineMove::Kind::Resize:
      net_.set_cell(move.gate(), scratch.saved_cell);
      break;
  }
}

EngineObjective RewireEngine::probe(const EngineMove& move) {
  return probe_with(scratch_, move);
}

EngineObjective RewireEngine::probe_with(ProbeScratch& scratch,
                                         const EngineMove& move,
                                         std::span<const std::uint8_t> critical_mask,
                                         double abort_above) {
  ++stats_.probes;
  const std::size_t bound_before = net_.id_bound();
  sta_.begin();
  apply_and_invalidate(scratch, move);
  bool pruned = !critical_mask.empty() && sta_.seeds_avoid(critical_mask);
  if (pruned) {
    ++stats_.probes_pruned;
  } else {
    // Probes run damped (objective-exact bounded-cone propagation); every
    // commit path leaves damping off so committed state is the true fixed
    // point. Damping stays disarmed between calls. A stopped drain proved
    // the move's critical delay above abort_above: mark it like a masked
    // probe.
    sta_.set_damping_active(timing_damp_);
    pruned = sta_.propagate(abort_above);
    sta_.set_damping_active(false);
    if (pruned) ++stats_.probes_bounded;
  }
  const EngineObjective obj{sta_.critical_delay(), sta_.sum_po_arrival(), pruned};
  undo_network_edit(scratch, move);
  sta_.rollback();
  sample_sta_counters();
  // Growing the id space mid-probe would leak probe history into future id
  // allocation (and through star-net branch order, into timing) — the
  // reserve must always cover a single move's inserts.
  RAPIDS_ASSERT_MSG(net_.id_bound() == bound_before,
                    "probe outgrew the recycled-id reserve");
  return obj;
}

void RewireEngine::count_commit(const EngineMove& move) {
  switch (move.kind()) {
    case EngineMove::Kind::Swap:
      ++stats_.swaps_committed;
      stats_.inverters_added +=
          static_cast<int>(scratch_.swap_edit.added_inverters.size());
      // The edit record now owns committed gates; detach it so the next
      // apply_swap_into does not trip the "still applied" guard.
      scratch_.swap_edit.added_inverters.clear();
      scratch_.swap_edit.applied = false;
      break;
    case EngineMove::Kind::Resize:
      ++stats_.resizes_committed;
      break;
  }
}

void RewireEngine::set_paranoid(bool on, const ParanoidOptions& options) {
  paranoid_options_ = options;
  paranoid_on_ = on;
  // Prover construction is LAZY (ensure_prover, on the first proof):
  // replica engines inherit the paranoid configuration on every sync but
  // never commit, so an eager solver+encoder per worker per epoch would be
  // pure allocation churn on the parallel hot path.
  if (!on) {
    paranoid_.reset();
    session_.reset();
  } else if (options.session) {
    paranoid_.reset();
  } else {
    session_.reset();
  }
}

void RewireEngine::ensure_prover() {
  RAPIDS_ASSERT(paranoid_on_);
  if (paranoid_options_.session) {
    if (!session_) {
      sat::ProofSession::Options sopt;
      sopt.conflict_limit = paranoid_options_.window_conflict_limit;
      session_ = std::make_unique<sat::ProofSession>(sopt);
      session_->set_tracer(tracer_);
      session_harvested_ = sat::ProofSessionStats{};
    }
  } else if (!paranoid_) {
    paranoid_ = std::make_unique<sat::WindowChecker>(
        paranoid_options_.window_conflict_limit);
  }
}

std::uint64_t RewireEngine::paranoid_moves_checked() const {
  if (session_) return session_->stats().moves_checked;
  if (paranoid_) return paranoid_->stats().moves_checked;
  return 0;
}

const sat::ProofSessionStats& RewireEngine::merged_session_stats() const {
  merged_session_scratch_ = session_ ? session_->stats() : sat::ProofSessionStats{};
  merged_session_scratch_ += absorbed_session_stats_;
  return merged_session_scratch_;
}

void RewireEngine::begin_paranoid_proof(const EngineMove& move) {
  RAPIDS_ASSERT_MSG(move.kind() == EngineMove::Kind::Swap,
                    "resize moves are exempt from proofs");
  // Observation root: the root of the supergate the swap rewires. Swap
  // candidates survive across epochs (they reference stable gate ids), but
  // their sg_index refers to the partition they were extracted from —
  // resolve the pin's supergate in the CURRENT partition instead.
  const SuperGate* sg = partition().sg_containing(move.swap_cand().pin_a.gate);
  RAPIDS_ASSERT_MSG(sg != nullptr, "swap pin outside any supergate");
  const GateId root = sg->root;

  // The swap rewires its two pins' gates; derive the inverters it creates
  // with a throwaway apply/undo (the probe guarantee: state is restored
  // bit-exactly), then encode the pre-move window.
  paranoid_changed_.clear();
  paranoid_changed_.push_back(move.swap_cand().pin_a.gate);
  paranoid_changed_.push_back(move.swap_cand().pin_b.gate);
  sta_.begin();
  apply_and_invalidate(scratch_, move);
  paranoid_created_ = scratch_.swap_edit.added_inverters;
  undo_network_edit(scratch_, move);
  sta_.rollback();
  // Created gates do not exist pre-move; the changed set must not name them.
  for (const GateId c : paranoid_created_) {
    paranoid_changed_.erase(
        std::remove(paranoid_changed_.begin(), paranoid_changed_.end(), c),
        paranoid_changed_.end());
  }
  ensure_prover();
  if (session_) {
    session_->begin(net_, std::span<const GateId>{&root, 1}, paranoid_changed_);
  } else {
    paranoid_->begin(net_, std::span<const GateId>{&root, 1}, paranoid_changed_);
  }
}

EngineObjective RewireEngine::commit(const EngineMove& move) {
  const bool prove = paranoid() && move.kind() == EngineMove::Kind::Swap;
  if (prove) begin_paranoid_proof(move);
  sta_.begin();
  apply_and_invalidate(scratch_, move);
  sta_.propagate();
  if (prove) {
    TraceSpan proof_span(tracer_, "sat", "proof_window");
    // Window-prover conflicts attributed to THIS move; escalation conflicts
    // are added from the full-miter result where one runs.
    const std::uint64_t conflicts_before =
        session_ ? session_->stats().conflicts
                 : (paranoid_ ? paranoid_->stats().conflicts : 0);
    const auto move_conflicts = [&](std::uint64_t extra) {
      const std::uint64_t now =
          session_ ? session_->stats().conflicts
                   : (paranoid_ ? paranoid_->stats().conflicts : 0);
      return now - conflicts_before + extra;
    };
    // The move re-inserts inverters; re-read the created set from the real
    // apply's edit record (ids can differ from the throwaway apply only in
    // recycling order, but take no chances).
    paranoid_created_ = scratch_.swap_edit.added_inverters;
    std::string diag;
    const bool window_ok =
        session_ ? session_->check(net_, paranoid_created_, &diag)
                 : paranoid_->check(net_, paranoid_created_, &diag);
    if (!window_ok) {
      // The window proof is sound but can be incomplete (a correlation
      // between cut points the window abstraction cannot see). Escalate to
      // a whole-network miter before declaring the move buggy: slow, but
      // only reached on window failures, and it makes paranoid mode
      // complete — a move is rejected iff it truly changes some output.
      undo_network_edit(scratch_, move);
      sta_.rollback();
      // The session cache must track the rolled-back network before the
      // escalation mutates anything else.
      if (session_) session_->abandon();
      log_warn() << "paranoid: window proof failed (" << diag
                 << "); escalating to a full miter";
      const Network pre = net_.clone();
      sta_.begin();
      apply_and_invalidate(scratch_, move);
      sta_.propagate();
      SatEquivalenceOptions full_opts;
      full_opts.conflict_limit = paranoid_options_.miter_conflict_limit;
      const SatEquivalenceResult full = check_equivalence_sat(pre, net_, full_opts);
      if (full.status == SatEquivalenceResult::Status::NotEquivalent) {
        undo_network_edit(scratch_, move);
        sta_.rollback();
        throw InternalError("paranoid proof failed: " + diag +
                            "; full miter CONFIRMS a functional change at output " +
                            full.failing_output);
      }
      if (full.status != SatEquivalenceResult::Status::Proved) {
        // Budget exhausted without a verdict: the move may well be correct,
        // but paranoid mode keeps only proved moves. Reject just this one
        // instead of killing the whole run.
        undo_network_edit(scratch_, move);
        sta_.rollback();
        ++paranoid_inconclusive_;
        paranoid_verdicts_.push_back(ProofVerdict::Inconclusive);
        proof_conflict_hist_.add(
            static_cast<double>(move_conflicts(full.conflicts)));
        log_warn() << "paranoid: full miter inconclusive (conflict budget); "
                      "rejecting the move conservatively";
        sample_sta_counters();
        return EngineObjective{sta_.critical_delay(), sta_.sum_po_arrival()};
      }
      // Kept on the strength of the whole-network miter alone: the ROOT
      // function may have changed unobservably (downstream don't-cares),
      // which breaks the session's cached-cone grounding — wipe it; fresh
      // encodings of the post-move structure restore the invariant.
      if (session_) session_->invalidate_all();
      paranoid_verdicts_.push_back(ProofVerdict::EscalatedProved);
      proof_conflict_hist_.add(static_cast<double>(move_conflicts(full.conflicts)));
    } else {
      if (session_) session_->keep();
      paranoid_verdicts_.push_back(ProofVerdict::WindowProved);
      proof_conflict_hist_.add(static_cast<double>(move_conflicts(0)));
    }
  }
  const EngineObjective obj{sta_.critical_delay(), sta_.sum_po_arrival()};
  // Record the move's dirty region for incremental partition maintenance —
  // and its replica-sync journal entry — BEFORE sta_.commit() clears the
  // STA transaction's changed-id sets and count_commit detaches the edit
  // records both read.
  mark_commit_dirty(move);
  record_sync_journal(move);
  sta_.commit();
  count_commit(move);
  // Committed inserts consumed reserve ids; top it back up HERE (commit
  // sequences are identical for every worker count) so probe-time id
  // allocation stays a pure function of the commit history.
  net_.reserve_recycled_ids(kIdReserve);
  ++epoch_;
  sample_sta_counters();
  return obj;
}

void RewireEngine::commit_and_revert(const EngineMove& move) {
  RAPIDS_ASSERT_MSG(move.kind() == EngineMove::Kind::Swap,
                    "commit_and_revert supports swap moves");
  // Bench-only path: commits without journal records; replicas (if any)
  // must fall back to a full sync.
  sync_journal_valid_ = false;
  sta_.begin();
  apply_swap_into(net_, placement_, lib_, move.swap_cand(), scratch_.swap_edit);
  invalidate_dirty(scratch_, scratch_.swap_edit.dirty_nets);
  sta_.propagate();
  sta_.commit();

  sta_.begin();
  // The undo touches the same nets (plus nothing else): reuse the dirty
  // set recorded at apply time, then roll the netlist back and keep THAT.
  // invalidate_net is idempotent within a transaction, so duplicates in the
  // recorded set are harmless.
  scratch_.dirty_scratch.assign(scratch_.swap_edit.dirty_nets.begin(),
                                scratch_.swap_edit.dirty_nets.end());
  undo_swap(net_, placement_, scratch_.swap_edit);
  for (const GateId d : scratch_.dirty_scratch) sta_.invalidate_net(d);
  sta_.propagate();
  sta_.commit();
  sample_sta_counters();
}

int RewireEngine::commit_best(std::vector<RankedMove>& ranked, double min_gain) {
  std::sort(ranked.begin(), ranked.end(),
            [](const RankedMove& a, const RankedMove& b) { return a.gain > b.gain; });
  int committed = 0;
  for (const RankedMove& rm : ranked) {
    // Re-validate against the current state: earlier commits may have
    // absorbed or invalidated this gain.
    const double before = sta_.critical_delay();
    const EngineObjective obj = probe(rm.move);
    if (before - obj.critical > min_gain) {
      commit(rm.move);
      ++committed;
    }
  }
  return committed;
}

}  // namespace rapids
