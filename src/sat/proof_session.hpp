// Persistent incremental SAT proof sessions for paranoid rewiring.
//
// sat/window.hpp proves one move with one throwaway solver: a fresh CDCL
// instance and a fresh Tseitin encoding of the move's window, every move.
// That is sound but wasteful — consecutive moves in one region share most
// of their window, and every learned clause dies with its solver. A
// ProofSession keeps ONE solver and ONE encoder alive for a whole
// optimization run and amortizes both:
//
//   * Cone cache. Every gate the session encodes gets a persistent literal,
//     keyed by gate id and invalidated by structure epoch: when a move is
//     kept, exactly the move's affected cone (changed gates, their fanout
//     cone up to the observation roots, created gates) is re-keyed;
//     everything else — and every learned clause — survives to the next
//     move. Gates inside a window encode structurally over their fanins'
//     literals; a first-seen gate OUTSIDE every window so far becomes a
//     persistent free cut variable (INV/BUF chains chased to their source
//     first, exactly as the per-move checker does), so the cut frontier of
//     move k+1 reuses what move k established. The pre-move literal of a
//     root the previous move re-encoded is a single cache lookup.
//
//   * Activation literals. All clauses emitted for one move's window are
//     weakened by a fresh per-move activation literal; check() discharges
//     the per-root miters under the assumptions {act, mismatch}. Keeping
//     the move asserts `act` (the window's encodings become permanent cache
//     backing); abandoning it asserts `~act`, which retracts the window —
//     the solver's periodic reduce_db() reclaims the root-satisfied
//     clauses, and the encoder evicts the orphaned hash-cons nodes.
//
// Soundness is the windowed-cut argument (see sat/window.hpp): pre and
// post encodings share one literal per untouched gate, and UNSAT of the
// root miter over all cut assignments implies real function preservation.
// Because cached entries carry strictly MORE structure than a per-move
// window (old windows stay encoded instead of collapsing to fresh cut
// variables), the session never fails a window the per-move checker would
// prove. The cut-correlation incompleteness class is shared with the
// per-move checker and handled by the caller's full-miter escalation; a
// move kept WITHOUT a root proof (escalation keep) or any mutation outside
// the proved commit stream must call invalidate_all() — cached structural
// claims are only maintained along proved commits.
//
// Gate-id recycling: the engine's probe machinery recycles tombstoned ids,
// so the id of a gate created by move k+1 may alias a gate move k knew.
// check() invalidates cache entries for every created gate before encoding
// (counted in stats().recycled_ids_invalidated when an entry was actually
// displaced), closing the aliasing hole.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "netlist/network.hpp"
#include "sat/solver.hpp"
#include "sat/tseitin.hpp"

namespace rapids {
class Tracer;
}  // namespace rapids

namespace rapids::sat {

struct ProofSessionStats {
  std::uint64_t moves_checked = 0;
  std::uint64_t roots_proved_structurally = 0;
  std::uint64_t roots_proved_by_sat = 0;
  /// Solver conflicts attributed to this session's miters, accumulated as
  /// per-move DELTAS of the persistent solver's counter (a cumulative add,
  /// as the per-move checker does with its throwaway solver, would count
  /// move k's conflicts again in every later move).
  std::uint64_t conflicts = 0;
  /// Gate literals freshly established (structural encodings + cut
  /// variables, pre + post walks). The per-move checker's `window_gates`
  /// analogue; the session's whole point is that this grows much slower
  /// than moves * window size.
  std::uint64_t gates_encoded = 0;
  /// Distinct gates per move whose literal was served from the persistent
  /// cache instead of being re-established.
  std::uint64_t cache_hits = 0;
  std::uint64_t windows_kept = 0;
  std::uint64_t windows_abandoned = 0;
  /// Cache entries displaced by invalidation (epoch: the kept move's
  /// affected cone; recycled: a created gate aliasing a cached id).
  std::uint64_t entries_invalidated = 0;
  std::uint64_t recycled_ids_invalidated = 0;
  std::uint64_t cache_wipes = 0;

  /// Field-wise combine/delta (all counters are monotone; -= computes the
  /// harvest window between two snapshots). Keep the field list in these
  /// two operators ONLY — per-field arithmetic anywhere else will silently
  /// miss the next added counter.
  ProofSessionStats& operator+=(const ProofSessionStats& o) {
    moves_checked += o.moves_checked;
    roots_proved_structurally += o.roots_proved_structurally;
    roots_proved_by_sat += o.roots_proved_by_sat;
    conflicts += o.conflicts;
    gates_encoded += o.gates_encoded;
    cache_hits += o.cache_hits;
    windows_kept += o.windows_kept;
    windows_abandoned += o.windows_abandoned;
    entries_invalidated += o.entries_invalidated;
    recycled_ids_invalidated += o.recycled_ids_invalidated;
    cache_wipes += o.cache_wipes;
    return *this;
  }
  ProofSessionStats& operator-=(const ProofSessionStats& o) {
    moves_checked -= o.moves_checked;
    roots_proved_structurally -= o.roots_proved_structurally;
    roots_proved_by_sat -= o.roots_proved_by_sat;
    conflicts -= o.conflicts;
    gates_encoded -= o.gates_encoded;
    cache_hits -= o.cache_hits;
    windows_kept -= o.windows_kept;
    windows_abandoned -= o.windows_abandoned;
    entries_invalidated -= o.entries_invalidated;
    recycled_ids_invalidated -= o.recycled_ids_invalidated;
    cache_wipes -= o.cache_wipes;
    return *this;
  }
};

class ProofSession {
 public:
  struct Options {
    /// Conflict budget per root miter (< 0: unlimited).
    std::int64_t conflict_limit = 1'000'000;
    /// Learned-DB reduction schedule forwarded to the solver
    /// (Solver::set_reduce_policy); first_cap 0 disables reduction.
    std::uint32_t reduce_db_first = 4000;
    double reduce_db_growth = 1.5;
  };

  ProofSession();
  explicit ProofSession(const Options& options);

  /// Phase 1, BEFORE the move is applied: same contract as
  /// WindowChecker::begin. A begin() while a window is already open (a
  /// probe abandoned mid-flight) abandons the stale window first.
  void begin(const Network& net, std::span<const GateId> roots,
             std::span<const GateId> changed);

  /// Phase 2, AFTER the move is applied: same contract as
  /// WindowChecker::check. Does NOT close the window — the caller must
  /// follow up with keep() (move committed) or abandon() (move rolled
  /// back) so the cache tracks the network.
  bool check(const Network& net, std::span<const GateId> created,
             std::string* diagnostic = nullptr);

  /// The checked move was committed: adopt the post-move window encodings
  /// into the cache (the affected cone's old entries are displaced) and
  /// permanently activate the window's clauses.
  void keep();

  /// The move was rolled back (proof failed, arbitration reject, abandoned
  /// probe): retract the window's clauses and drop the structural cache
  /// entries it wrote, restoring the cache to the pre-begin state. Bare
  /// cut variables carry no claim and survive.
  void abandon();

  /// Drop every cached entry that carries a structural claim (bare cut /
  /// primary-input variables survive — they only name a value). Required
  /// when a move is kept WITHOUT a root proof (full-miter escalation) or
  /// the network is mutated outside the proved commit stream.
  void invalidate_all();

  /// Erase one gate's cached encoding (recycled-id hook; check() applies
  /// this to created gates automatically).
  void invalidate(GateId g);

  /// Tracer that receives the session's instant events (cache wipes). The
  /// engine wires its run's session tracer here so multi-session runs
  /// record into the right rings no matter which thread triggers the wipe.
  /// Null (the default, a prover built outside any session) records
  /// nothing.
  void set_tracer(Tracer* tracer) { tracer_ = tracer; }

  bool window_open() const { return window_open_; }
  const ProofSessionStats& stats() const { return stats_; }
  const SolverStats& solver_stats() const { return solver_->stats(); }
  std::size_t cached_gates() const { return cache_.size(); }
  std::size_t solver_learned_clauses() const { return solver_->num_learned_clauses(); }
  std::size_t solver_problem_clauses() const { return solver_->num_problem_clauses(); }

 private:
  /// Establish `root`'s window literal against the current network. Both
  /// walks re-derive gates in `affected_` into their own overlay (never
  /// through the persistent cache — see the correlation comment in the
  /// implementation); boundary gates read or extend the cache, and ones
  /// with no entry become persistent cut variables (INV/BUF chains
  /// chased). Unchanged re-derivations hash-cons to their existing nodes.
  Lit encode(const Network& net, GateId root,
             std::unordered_map<GateId, Lit>& overlay);
  /// Literal for a boundary gate (outside `affected_`): cache hit, or a
  /// chased cut variable established now.
  Lit boundary_lit(const Network& net, GateId g);
  void close_window(bool kept);
  void erase_entry(GateId g);

  Options options_;
  std::unique_ptr<Solver> solver_;
  std::unique_ptr<CnfEncoder> enc_;

  /// gate -> literal standing for its CURRENT output in every miter. Either
  /// a structural encoding over fanin literals (gates some window has
  /// re-encoded), an INV/BUF chain alias, or a bare cut variable.
  std::unordered_map<GateId, Lit> cache_;
  /// Entries that are bare free variables (primary inputs, cut sources):
  /// claim-free, so exempt from window journaling and invalidate_all().
  std::unordered_set<GateId> free_vars_;

  // --- open-window state ---
  bool window_open_ = false;
  Lit act_;  // this window's activation literal
  std::unordered_set<GateId> affected_;
  std::vector<GateId> roots_;
  std::vector<Lit> pre_lits_;
  std::unordered_map<GateId, Lit> pre_overlay_, post_overlay_;
  /// Claim-carrying cache writes made by this window: erased on abandon()
  /// because their defining clauses are retracted with the guard.
  std::vector<GateId> window_cache_writes_;
  /// Gates reached so far by this move's walks (cross-move cache-hit
  /// accounting: one hit per distinct reused gate per move).
  std::unordered_set<GateId> walk_seen_;
  bool escaped_ = false;
  GateId escape_gate_ = kNullGate;
  bool checked_ = false;

  Tracer* tracer_ = nullptr;
  ProofSessionStats stats_;
};

}  // namespace rapids::sat
