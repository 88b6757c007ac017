// Mapped Boolean network: a DAG of single-output gates.
//
// Vertices are gates, edges are wires (paper §2). Every gate's output is a
// net identified with the gate itself; a sink of that net is an in-pin
// (gate, input index). The structure keeps forward (fanin) and reverse
// (fanout) adjacency consistent under rewiring, which is the fundamental
// operation of this library.
//
// Storage is an arena: per-gate scalars live in parallel (SoA) arrays and
// the fanin/fanout adjacency lists are chunks inside two shared pools with
// per-size free lists (see adjacency_pool.hpp). Names are not stored per
// gate: unnamed gates print as "g<id>" on demand and only explicit names
// occupy the side table, so the rewiring hot path never touches a string
// or the name map.
//
// Gate ids are stable: deleting a gate tombstones its slot, it is never
// reused within a Network's lifetime. This lets placements, timing
// annotations and supergate partitions be stored as plain id-indexed
// vectors alongside the network. Deleted gates' adjacency chunks ARE
// recycled, so long probe/undo loops do not grow the pools.
//
// Iteration contract: spans returned by fanins()/fanouts() point into the
// shared pools and are invalidated by ANY topology mutation (add_fanin,
// set_fanin, remove_fanin, delete_gate, add_gate) — snapshot before
// mutating while iterating.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "netlist/adjacency_pool.hpp"
#include "netlist/gate_type.hpp"
#include "util/assert.hpp"

namespace rapids {

using GateId = std::uint32_t;
inline constexpr GateId kNullGate = 0xFFFFFFFFu;

/// An in-pin: input `index` of gate `gate`.
struct Pin {
  GateId gate = kNullGate;
  std::uint32_t index = 0;

  bool valid() const { return gate != kNullGate; }
  friend bool operator==(const Pin& a, const Pin& b) = default;
};

struct PinHash {
  std::size_t operator()(const Pin& p) const {
    return std::hash<std::uint64_t>()((static_cast<std::uint64_t>(p.gate) << 32) | p.index);
  }
};

class Network {
 public:
  Network() = default;

  // --- construction -------------------------------------------------------

  /// Create a gate with no connections. Name may be empty (the gate then
  /// answers to its implicit name "g<id>"); non-empty names must be unique.
  GateId add_gate(GateType type, const std::string& name = {});

  /// Opt-in tombstone recycling: while enabled, delete_gate() pushes the id
  /// onto a free list and add_gate() pops from it, so probe loops that
  /// insert and delete inverters millions of times keep id_bound() — and
  /// every id-indexed side structure — at a fixed size. Recycled ids may
  /// carry stale entries in side tables (placement, partitions); enable
  /// only inside a scope that re-initializes what it reads (the
  /// RewireEngine does this for the move kinds it owns). Disabling drops
  /// the pending free list: those ids stay tombstoned forever, restoring
  /// the default stable-id contract.
  void set_id_recycling(bool on) {
    recycle_ids_ = on;
    if (!on) free_ids_.clear();
  }
  bool id_recycling() const { return recycle_ids_; }

  /// Top the recycled-id free stack up to at least `n` entries by minting
  /// fresh tombstoned ids (requires recycling mode). Makes id allocation a
  /// pure function of the commit history: a probe that inserts gates pops
  /// from this reserve and its undo pushes the ids back, so the id a gate
  /// receives never depends on how many probes ran before — the invariant
  /// the parallel scheduler's determinism contract rests on (gate ids key
  /// the star-net branch order, so ids feed timing arithmetic).
  void reserve_recycled_ids(std::size_t n);

  /// Append `driver` as the next fanin of `gate`.
  void add_fanin(GateId gate, GateId driver);

  /// Reconnect in-pin `pin` to `new_driver` (the elementary rewiring move).
  void set_fanin(Pin pin, GateId new_driver);

  /// Remove gate. It must have no remaining fanouts; its in-pins are
  /// detached first. The id becomes invalid (tombstoned).
  void delete_gate(GateId gate);

  /// Remove in-pin `index` of `gate`; later pins shift down one slot (their
  /// drivers' fanout entries are re-indexed). Used by constant folding.
  void remove_fanin(GateId gate, std::uint32_t index);

  /// Reconnect every sink of `from` onto `to` (from ends up with no
  /// fanouts, ready for delete_gate).
  void replace_all_fanouts(GateId from, GateId to);

  /// Change a gate's logic type (used by DeMorgan transforms). The fanin
  /// count must remain legal for the new type.
  void set_type(GateId gate, GateType type);

  // --- topology queries ----------------------------------------------------

  bool is_deleted(GateId gate) const { return check(gate), deleted_[gate] != 0; }
  GateType type(GateId gate) const { return check(gate), type_[gate]; }

  std::span<const GateId> fanins(GateId gate) const {
    check(gate);
    const ChunkRef& r = fanin_ref_[gate];
    return {fanin_pool_.at(r), r.cnt};
  }
  GateId fanin(GateId gate, std::uint32_t index) const {
    check(gate);
    const ChunkRef& r = fanin_ref_[gate];
    RAPIDS_ASSERT(index < r.cnt);
    return fanin_pool_.at(r)[index];
  }
  std::uint32_t fanin_count(GateId gate) const { return check(gate), fanin_ref_[gate].cnt; }

  /// Sink pins of this gate's output net (order unspecified).
  std::span<const Pin> fanouts(GateId gate) const {
    check(gate);
    const ChunkRef& r = fanout_ref_[gate];
    return {fanout_pool_.at(r), r.cnt};
  }
  std::uint32_t fanout_count(GateId gate) const {
    return check(gate), fanout_ref_[gate].cnt;
  }

  /// Driver feeding in-pin `pin`.
  GateId driver_of(Pin pin) const { return fanin(pin.gate, pin.index); }

  // --- boundary ------------------------------------------------------------

  std::span<const GateId> primary_inputs() const { return {inputs_.data(), inputs_.size()}; }
  std::span<const GateId> primary_outputs() const { return {outputs_.data(), outputs_.size()}; }
  /// The gate driving primary output marker `po`.
  GateId po_driver(GateId po) const;

  // --- ids and iteration -----------------------------------------------

  /// One past the largest id ever allocated — size for id-indexed vectors.
  std::size_t id_bound() const { return type_.size(); }

  /// Monotone counter bumped by every structural mutation (add_gate,
  /// delete_gate and any fanin rewiring — not set_type/set_cell, which keep
  /// the topology). Structures that capture a topological order (Simulator)
  /// snapshot this and assert it unchanged, turning the silent
  /// stale-snapshot footgun into a loud failure.
  std::uint64_t structure_revision() const { return revision_; }

  /// Pending recycled ids (most recently freed last). Exposed so tests can
  /// assert probe/undo loops restore the free stack exactly.
  std::span<const GateId> recycling_free_ids() const {
    return {free_ids_.data(), free_ids_.size()};
  }

  /// Number of live (non-deleted) gates, including Input/Output/Const.
  std::size_t num_gates() const { return live_count_; }

  /// Number of live logic gates (excludes Input/Output/Const markers).
  std::size_t num_logic_gates() const;

  /// Invoke fn for each live gate id, ascending. Statically dispatched —
  /// safe (and free) in hot loops.
  template <typename Fn>
  void for_each_gate(Fn&& fn) const {
    const std::size_t n = type_.size();
    for (GateId id = 0; id < n; ++id) {
      if (!deleted_[id]) fn(id);
    }
  }

  /// Allocation-free range over live gate ids: `for (GateId g : net.gates())`.
  /// The id bound is snapshotted when the range is created: gates appended
  /// during iteration are not visited, and deleting gates (including the
  /// current one) is safe — the iterator never walks past its snapshot.
  /// Caveat: with id recycling enabled, a gate added mid-iteration may
  /// reuse a tombstoned id BELOW the bound and, if ahead of the iterator,
  /// will be visited.
  class GateRange {
   public:
    class iterator {
     public:
      iterator(const std::vector<std::uint8_t>* deleted, GateId at, GateId end)
          : deleted_(deleted), at_(at), end_(end) {
        skip();
      }
      GateId operator*() const { return at_; }
      iterator& operator++() {
        ++at_;
        skip();
        return *this;
      }
      friend bool operator!=(const iterator& a, const iterator& b) {
        return a.at_ != b.at_;
      }

     private:
      void skip() {
        while (at_ < end_ && (*deleted_)[at_]) ++at_;
      }
      const std::vector<std::uint8_t>* deleted_;
      GateId at_;
      GateId end_;
    };

    explicit GateRange(const std::vector<std::uint8_t>* deleted)
        : deleted_(deleted), end_(static_cast<GateId>(deleted->size())) {}
    iterator begin() const { return iterator(deleted_, 0, end_); }
    iterator end() const { return iterator(deleted_, end_, end_); }

   private:
    const std::vector<std::uint8_t>* deleted_;
    GateId end_;
  };

  GateRange gates() const { return GateRange(&deleted_); }

  // --- names ----------------------------------------------------------
  //
  // Only I/O and diagnostics consult names; they are not on any hot path.

  /// The gate's name: its interned explicit name, or the implicit "g<id>"
  /// ("u<id>" when some other gate explicitly claimed "g<id>").
  std::string name(GateId gate) const;

  /// True if the gate was created with / renamed to an explicit name.
  bool has_explicit_name(GateId gate) const {
    return check(gate), names_.contains(gate);
  }

  /// Find a gate by name (explicit or implicit); returns kNullGate if absent.
  GateId find(const std::string& name) const;

  /// Rename; new name must be unused.
  void rename(GateId gate, const std::string& name);

  // --- library binding --------------------------------------------------

  /// Index of the bound library cell, or -1 if unmapped.
  std::int32_t cell(GateId gate) const { return check(gate), cell_[gate]; }
  void set_cell(GateId gate, std::int32_t cell_index) {
    check(gate);
    cell_[gate] = cell_index;
  }

  // --- whole-network operations -----------------------------------------

  /// Deep copy (ids preserved, including tombstones).
  Network clone() const;

  /// Remove logic gates with no path to any primary output. Returns the
  /// number of gates removed. Ids of survivors are unchanged.
  std::size_t sweep_dangling();

  /// Count of live gates per type.
  std::vector<std::size_t> type_histogram() const;

  /// Sort every fanout list whose order may have drifted by (gate, index).
  /// Fanout order is otherwise history-dependent — undo re-appends pins at
  /// the end and removal swaps-with-last — so any consumer that iterates
  /// fanouts (supergate extraction, and through it group indexing in the
  /// parallel scheduler's canonical commit order) must run on a
  /// canonicalized network to be independent of how many probes ran before.
  /// Set-wise the structure is unchanged; topological validity and all
  /// caches remain intact.
  ///
  /// Cost is O(dirty): every order-perturbing mutation marks its driver and
  /// only marked gates are re-sorted (the first call after construction or
  /// clone pays the one O(network) pass). A gate that is not marked is
  /// guaranteed already canonical, so repeated calls on a quiescent network
  /// are O(1).
  void canonicalize_fanout_order();

  /// Fanout lists currently marked order-dirty (SIZE_MAX before the first
  /// canonicalization, when everything is implicitly dirty).
  std::size_t fanout_order_dirty_count() const {
    return all_fanouts_dirty_ ? static_cast<std::size_t>(-1)
                              : fanout_dirty_list_.size();
  }
  /// Lifetime counters: canonicalize_fanout_order() invocations and the
  /// total fanout lists actually re-sorted by them (`rapids bench scale`'s
  /// "gates re-canonicalized per commit" metric).
  std::uint64_t canonicalize_calls() const { return canonicalize_calls_; }
  std::uint64_t gates_canonicalized() const { return gates_canonicalized_; }

  /// Replica delta sync: make this network structurally identical to `src`
  /// by copying only the listed gate rows (type, cell binding, tombstone
  /// flag, fanin list, fanout list), extending the id space to src's bound
  /// (rows minted since are copied wholesale), and adopting src's
  /// recycled-id free stack. `this` must be a clone of an earlier state of
  /// `src` whose every structurally changed gate since then appears in
  /// `changed` (duplicates fine). Boundary (Input/Output) membership and
  /// explicit names are NOT synced — commits never change the former, and
  /// replicas never read the latter. Returns an estimate of the bytes
  /// shipped (replica-sync accounting).
  std::size_t adopt_structural_delta(const Network& src,
                                     std::span<const GateId> changed);

 private:
  void check(GateId gate) const {
    RAPIDS_ASSERT_MSG(gate < type_.size(), "gate id out of range");
  }

  void remove_fanout_entry(GateId driver, Pin pin);
  /// The implicit name of an unnamed gate.
  std::string implicit_name(GateId gate) const;

  /// Record that `driver`'s fanout list may have left canonical order.
  void mark_fanout_order_dirty(GateId driver) {
    if (all_fanouts_dirty_) return;
    if (!fanout_dirty_[driver]) {
      fanout_dirty_[driver] = 1;
      fanout_dirty_list_.push_back(driver);
    }
  }

  // SoA per-gate state.
  std::vector<GateType> type_;
  std::vector<std::int32_t> cell_;
  std::vector<std::uint8_t> deleted_;
  std::vector<ChunkRef> fanin_ref_;
  std::vector<ChunkRef> fanout_ref_;
  AdjacencyPool<GateId> fanin_pool_;
  AdjacencyPool<Pin> fanout_pool_;

  std::vector<GateId> inputs_;
  std::vector<GateId> outputs_;

  // Explicitly named gates only.
  std::unordered_map<GateId, std::string> names_;
  std::unordered_map<std::string, GateId> by_name_;

  std::size_t live_count_ = 0;
  bool recycle_ids_ = false;
  std::vector<GateId> free_ids_;
  std::uint64_t revision_ = 0;

  // Fanout-order dirty tracking for O(dirty) canonicalization. Until the
  // first canonicalize_fanout_order() call every list is implicitly dirty
  // (all_fanouts_dirty_); afterwards only marked gates need re-sorting.
  std::vector<std::uint8_t> fanout_dirty_;
  std::vector<GateId> fanout_dirty_list_;
  bool all_fanouts_dirty_ = true;
  std::uint64_t canonicalize_calls_ = 0;
  std::uint64_t gates_canonicalized_ = 0;
};

}  // namespace rapids
