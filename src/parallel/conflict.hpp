// Conflict signatures and conflict-aware sharding of the candidate stream.
//
// Two candidate moves CONFLICT when probing or committing one can change
// what the other's evaluation would read: they rewire the same nets, retime
// the same gates, or their invalidated STA cones overlap. A move's
// ConflictSignature approximates that read/write set as a sorted gate-id
// set: the STA invalidation seeds the move would dirty (old/new drivers,
// resized gates and their fanin drivers) widened by
// the downstream fanout cone to a small truncation depth — the region
// incremental propagation touches first.
//
// The scheduler shards candidate GROUPS (one supergate's swaps, one gate's
// resizes) so that any two groups with overlapping signatures land in the
// same shard: signatures induce a graph over groups, and each connected
// component is assigned to exactly one shard (components are distributed
// round-robin in canonical order). Within a shard, one worker probes groups
// sequentially in ascending group order. Disjoint shards touch disjoint
// gates, which is what makes the fan-out safe today (replica workers) and
// is the hard prerequisite for future zero-copy workers that probe a
// SHARED netlist.
#pragma once

#include <span>
#include <vector>

#include "engine/rewire_engine.hpp"
#include "netlist/network.hpp"

namespace rapids {

/// Sorted, deduplicated set of gate ids a move (or group of moves) can
/// touch: rewired-net drivers, retimed gates, and their truncated fanout
/// cone.
struct ConflictSignature {
  std::vector<GateId> touched;

  bool empty() const { return touched.empty(); }
  /// Sorted-set intersection test (linear merge scan).
  bool overlaps(const ConflictSignature& other) const;
  /// Union into this signature (keeps the sorted-unique invariant).
  void merge(const ConflictSignature& other);
};

/// Signature of a single move. `cone_depth` levels of fanout cone are added
/// beyond the directly touched gates.
ConflictSignature move_signature(const Network& net, const EngineMove& move,
                                 int cone_depth);

/// Signature of a candidate group: union over its moves' signatures.
ConflictSignature group_signature(const Network& net, std::span<const EngineMove> moves,
                                  int cone_depth);

/// Conflict-aware shard assignment. Returns shard_of[g] in [0, num_shards)
/// for every group. Connected components of the conflict graph are kept on
/// one shard — so overlapping groups are probed by the same worker in
/// canonical order — UNLESS a component is so large that atomicity would
/// starve the pool (placed netlists are connected: fanout cones chain most
/// groups into one giant component). Oversized components (above one
/// shard's fair share of probe WEIGHT) are split: their groups are dealt in
/// canonical group order onto the currently least-weighted shard. That
/// split is safe: workers probe isolated replicas and the arbiter
/// re-validates every winner against the live state, so component
/// atomicity is a locality/ordering heuristic, never a correctness
/// requirement. Deterministic: depends only on the signatures, weights and
/// num_shards, never on thread scheduling.
///
/// `weights[g]` is group g's probe cost (the scheduler passes the move
/// count — each move is one replica probe). Balancing on weight, not group
/// count, is what keeps per-worker probe totals even when group sizes are
/// skewed (one supergate with 100 swap pairs next to many 1-resize
/// groups). Pass an empty vector for unit weights.
std::vector<int> assign_shards(const std::vector<ConflictSignature>& sigs,
                               const std::vector<std::uint64_t>& weights,
                               int num_shards);

/// Unit-weight convenience overload (every group counts 1).
std::vector<int> assign_shards(const std::vector<ConflictSignature>& sigs,
                               int num_shards);

}  // namespace rapids
