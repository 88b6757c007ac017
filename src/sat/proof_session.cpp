#include "sat/proof_session.hpp"

#include <algorithm>

#include "trace/trace.hpp"
#include "util/assert.hpp"

namespace rapids::sat {

ProofSession::ProofSession() : ProofSession(Options{}) {}

ProofSession::ProofSession(const Options& options) : options_(options) {
  solver_ = std::make_unique<Solver>();
  solver_->set_reduce_policy(options_.reduce_db_first, options_.reduce_db_growth);
  enc_ = std::make_unique<CnfEncoder>(*solver_);
}

Lit ProofSession::boundary_lit(const Network& net, GateId g) {
  // Chase INV/BUF chains to their source before minting a cut variable —
  // the same correlation-preserving rule as WindowChecker::leaf_lit:
  // inverter-reuse swaps rewire a pin straight to an inverter's input, and
  // pre/post must share one variable for that signal. (Chains never enter
  // the affected set: a boundary gate's fanins are boundary gates too, or
  // the gate would be in the fanout cone of a changed gate.)
  const GateId entry = g;
  bool negate = false;
  while (net.type(g) == GateType::Inv || net.type(g) == GateType::Buf) {
    negate ^= net.type(g) == GateType::Inv;
    g = net.fanin(g, 0);
    RAPIDS_ASSERT_MSG(!affected_.contains(g),
                      "session boundary chain re-enters the window");
  }
  Lit src;
  if (net.type(g) == GateType::Const0 || net.type(g) == GateType::Const1) {
    src = enc_->constant(net.type(g) == GateType::Const1);
  } else if (const auto it = cache_.find(g); it != cache_.end()) {
    if (walk_seen_.insert(g).second) ++stats_.cache_hits;
    src = it->second;
  } else {
    // A bare cut variable: no defining clauses, no structural claim — it
    // persists across moves (and across abandons/wipes) as the shared
    // handle for this signal.
    src = enc_->fresh();
    cache_.emplace(g, src);
    free_vars_.insert(g);
    walk_seen_.insert(g);
    ++stats_.gates_encoded;
  }
  const Lit out = negate ? ~src : src;
  if (entry != g) {
    // The chain entry's alias (entry = +/- source) IS a structural claim:
    // journal it so abandon()/invalidate_all() treat it like any encoding.
    cache_.emplace(entry, out);
    window_cache_writes_.push_back(entry);
    walk_seen_.insert(entry);
    ++stats_.gates_encoded;
  }
  return out;
}

Lit ProofSession::encode(const Network& net, GateId root,
                         std::unordered_map<GateId, Lit>& overlay) {
  // Literal resolution order: gates in the affected set resolve ONLY
  // through this walk's overlay — NEVER through the persistent cache, and
  // both walks re-derive them against the net's current state. That
  // symmetry is the correlation guarantee: a cached literal (the root's,
  // say) transitively references the frontier of the move that stored it,
  // and an asymmetric walk that short-circuits on it while the other side
  // re-encodes over TODAY's frontier would compare functions over
  // unrelated variables — the miter then "distinguishes" them at
  // assignments no real input can produce (a spurious window failure; the
  // differential against WindowChecker caught exactly this). Re-deriving
  // an unchanged gate is nearly free: its fanin literals resolve to the
  // same values, so the encoder's hash-consing returns the existing node —
  // no new variable, no new clauses. Everything outside the affected set
  // reads (or extends) the persistent cache as a boundary, which is what
  // makes pre and post share one literal per untouched gate.
  const auto find_lit = [&](GateId g, Lit& l) -> bool {
    if (const auto it = overlay.find(g); it != overlay.end()) {
      l = it->second;
      return true;
    }
    if (affected_.contains(g)) return false;
    if (const auto it = cache_.find(g); it != cache_.end()) {
      l = it->second;
      if (walk_seen_.insert(g).second) ++stats_.cache_hits;
      return true;
    }
    return false;
  };
  const auto store = [&](GateId g, Lit l) {
    if (affected_.contains(g)) {
      overlay.emplace(g, l);
    } else {
      cache_.emplace(g, l);
      window_cache_writes_.push_back(g);
    }
    // A re-derivation that lands on the literal the cache already holds is
    // amortized work (a hash-cons hit chain), not fresh encoding.
    const auto it = cache_.find(g);
    if (it != cache_.end() && it->second == l && affected_.contains(g)) {
      if (walk_seen_.insert(g).second) ++stats_.cache_hits;
    } else {
      ++stats_.gates_encoded;
      walk_seen_.insert(g);
    }
  };
  // Structural descent is confined to the affected cone; everything else
  // is boundary.
  const auto resolve_boundary = [&](GateId g, Lit& l) -> bool {
    const GateType t = net.type(g);
    if (t == GateType::Const0 || t == GateType::Const1) {
      l = enc_->constant(t == GateType::Const1);
      return true;
    }
    if (!affected_.contains(g)) {
      l = boundary_lit(net, g);
      return true;
    }
    RAPIDS_ASSERT_MSG(t != GateType::Output, "proof window reached a PO marker");
    return false;
  };

  Lit out;
  if (find_lit(root, out)) return out;

  std::vector<std::pair<GateId, bool>> stack;  // (gate, children_done)
  std::vector<Lit> fanin_lits;
  stack.emplace_back(root, false);
  while (!stack.empty()) {
    const auto [g, ready] = stack.back();
    stack.pop_back();
    Lit l;
    if (find_lit(g, l)) continue;
    if (!ready) {
      if (resolve_boundary(g, l)) continue;
      stack.emplace_back(g, true);
      for (const GateId f : net.fanins(g)) stack.emplace_back(f, false);
      continue;
    }
    fanin_lits.clear();
    for (const GateId f : net.fanins(g)) {
      Lit fl;
      bool have = find_lit(f, fl);
      if (!have) have = resolve_boundary(f, fl);
      RAPIDS_ASSERT(have);
      fanin_lits.push_back(fl);
    }
    store(g, enc_->gate_lit(net.type(g), fanin_lits));
  }
  const bool have = find_lit(root, out);
  RAPIDS_ASSERT(have);
  return out;
}

void ProofSession::begin(const Network& net, std::span<const GateId> roots,
                         std::span<const GateId> changed) {
  if (window_open_) {
    // begin-begin without an intervening check: the previous probe was
    // abandoned mid-flight. Retract its window so no stale affected set,
    // pre literal or half-built encoding leaks into this move.
    abandon();
  }

  window_open_ = true;
  checked_ = false;
  escaped_ = false;
  escape_gate_ = kNullGate;
  affected_.clear();
  walk_seen_.clear();
  window_cache_writes_.clear();
  pre_overlay_.clear();
  post_overlay_.clear();
  pre_lits_.clear();
  roots_.assign(roots.begin(), roots.end());
  act_ = enc_->begin_group();

  // Affected set: fanout cone of the changed gates, truncated at the
  // observation roots (same contract as WindowChecker::begin). A cone that
  // reaches a primary-output marker bypassing every root is recorded and
  // fails in check() — the roots do not dominate the move.
  const std::unordered_set<GateId> root_set(roots_.begin(), roots_.end());
  std::vector<GateId> queue(changed.begin(), changed.end());
  for (const GateId g : queue) affected_.insert(g);
  while (!queue.empty()) {
    const GateId g = queue.back();
    queue.pop_back();
    if (net.type(g) == GateType::Output) {
      escaped_ = true;
      escape_gate_ = g;
      continue;
    }
    if (root_set.contains(g)) continue;  // dominated: stop expanding
    for (const Pin& sink : net.fanouts(g)) {
      if (affected_.insert(sink.gate).second) queue.push_back(sink.gate);
    }
  }
  if (escaped_) return;  // check() fails without encoding anything

  pre_lits_.reserve(roots_.size());
  for (const GateId root : roots_) pre_lits_.push_back(encode(net, root, pre_overlay_));
}

bool ProofSession::check(const Network& net, std::span<const GateId> created,
                         std::string* diagnostic) {
  RAPIDS_ASSERT_MSG(window_open_, "ProofSession::check without begin");
  RAPIDS_ASSERT_MSG(!checked_, "ProofSession::check called twice on one window");
  checked_ = true;
  ++stats_.moves_checked;
  if (escaped_) {
    if (diagnostic) {
      *diagnostic = "move's affected cone reaches primary output " +
                    net.name(escape_gate_) + " without passing an observation root (" +
                    (roots_.empty() ? std::string("none") : net.name(roots_[0])) + ")";
    }
    return false;
  }
  for (const GateId g : created) {
    affected_.insert(g);
    // Recycled-id hole: the created gate's id may alias a gate an earlier
    // move cached. Displace the stale entry BEFORE the post walk.
    if (cache_.count(g) > 0) {
      erase_entry(g);
      ++stats_.entries_invalidated;
      ++stats_.recycled_ids_invalidated;
    }
  }

  // Per-move delta accounting: the solver is persistent, so adding its
  // cumulative counter per move (as the throwaway-solver checker may) would
  // re-count every earlier move's conflicts here.
  const std::uint64_t conflicts_before = solver_->stats().conflicts;
  bool ok = true;
  for (std::size_t i = 0; i < roots_.size(); ++i) {
    const Lit post = encode(net, roots_[i], post_overlay_);
    if (post == pre_lits_[i]) {
      // Hash-consing resolved pre and post to one node: the rewired cone
      // re-normalized to the identical structure (e.g. a symmetric-pin
      // swap) — proved without touching the solver.
      ++stats_.roots_proved_structurally;
      continue;
    }
    const Lit diff = enc_->mismatch(pre_lits_[i], post);
    const SatStatus status = solver_->solve({act_, diff}, options_.conflict_limit);
    if (status == SatStatus::Unsat) {
      ++stats_.roots_proved_by_sat;
      continue;
    }
    if (diagnostic) {
      *diagnostic = (status == SatStatus::Unknown ? "proof budget exhausted at root "
                                                  : "function changed at root ") +
                    net.name(roots_[i]);
    }
    ok = false;
    break;
  }
  stats_.conflicts += solver_->stats().conflicts - conflicts_before;
  return ok;
}

void ProofSession::erase_entry(GateId g) {
  cache_.erase(g);
  free_vars_.erase(g);
}

void ProofSession::keep() {
  RAPIDS_ASSERT_MSG(window_open_ && checked_, "keep() needs a checked window");
  // The move is committed: pre-move encodings of the affected cone are
  // stale — displace them and adopt the post-move window. Entries the move
  // never re-reached (a subtree the rewiring cut away from the root) are
  // displaced too: their literals still reference re-encoded gates' OLD
  // functions. A displaced bare cut variable is tied to the gate's
  // pre-move encoding first, or literals built over it (an inverter past
  // the root aliases its complement) float free of the gate's new one.
  for (const GateId g : affected_) {
    const auto it = cache_.find(g);
    if (it == cache_.end()) continue;
    if (free_vars_.contains(g)) {
      if (const auto pre = pre_overlay_.find(g); pre != pre_overlay_.end()) {
        solver_->add_clause(~it->second, pre->second);
        solver_->add_clause(it->second, ~pre->second);
      }
    }
    erase_entry(g);
    ++stats_.entries_invalidated;
  }
  for (const auto& [g, l] : post_overlay_) cache_[g] = l;
  enc_->commit_group();
  close_window(/*kept=*/true);
}

void ProofSession::abandon() {
  RAPIDS_ASSERT_MSG(window_open_, "abandon() without an open window");
  // The move was rolled back: the network is back in its pre-begin state,
  // and so must the cache be. This window's claim-carrying encodings lose
  // their defining clauses with the guard retraction, so they must leave
  // the cache; bare cut variables and everything older stay valid.
  for (const GateId g : window_cache_writes_) cache_.erase(g);
  enc_->rollback_group();
  close_window(/*kept=*/false);
}

void ProofSession::invalidate_all() {
  if (window_open_) abandon();
  std::size_t dropped = 0;
  for (auto it = cache_.begin(); it != cache_.end();) {
    if (free_vars_.contains(it->first)) {
      ++it;
    } else {
      it = cache_.erase(it);
      ++dropped;
    }
  }
  stats_.entries_invalidated += dropped;
  ++stats_.cache_wipes;
  if (tracer_ != nullptr) {
    tracer_->instant("sat", "session_cache_wipe", "entries",
                     static_cast<std::int64_t>(dropped));
  }
}

void ProofSession::invalidate(GateId g) {
  RAPIDS_ASSERT_MSG(!window_open_, "invalidate() inside an open window");
  if (free_vars_.contains(g)) return;
  stats_.entries_invalidated += cache_.erase(g);
}

void ProofSession::close_window(bool kept) {
  window_open_ = false;
  checked_ = false;
  act_ = Lit::from_code(kUndefLitCode);
  affected_.clear();
  roots_.clear();
  pre_lits_.clear();
  pre_overlay_.clear();
  post_overlay_.clear();
  window_cache_writes_.clear();
  walk_seen_.clear();
  escaped_ = false;
  escape_gate_ = kNullGate;
  if (kept) {
    ++stats_.windows_kept;
  } else {
    ++stats_.windows_abandoned;
  }
}

}  // namespace rapids::sat
