// Cross-supergate group swapping (Theorem 2, Fig. 3).
//
// When the outputs of two AND/OR-type supergates SG1, SG2 are symmetric
// (their sink pins are swappable inside an enclosing supergate) and the
// supergates have the same number of leaf fanins, the two *fanin groups*
// can be exchanged under DeMorgan transformation: every covered gate's base
// type flips (AND<->OR, NAND<->NOR), which complements all leaf literal
// polarities and the output. Residual polarity mismatches are absorbed by
// the enclosing swap polarity (ES) or by inserting inverters at the leaf
// pins.
//
// Any AND/OR supergate computes  out = c XOR AND_i (x_i == v_i)  where v_i
// is the imp_value of leaf i and c a constant; the implementation reasons
// entirely in this canonical form. The paper excludes cross-supergate swaps
// from its optimizer formulation, and so does the flow: the rewiring engine
// carries only pin swaps and resizes (engine/rewire_engine.hpp). Here they
// are a verified capability exercised by bench/fig3_cross_supergate and the
// test suite. Reviving them in the flow takes back the engine move kind that
// was removed with that decision (apply/undo through the functions below,
// commit dirt, a slot-freshness check before every probe and commit, and
// replicas that hold a slot-exact copy of the partition) plus an optimizer
// hook that streams find_cross_sg_candidates as probe groups.
#pragma once

#include <vector>

#include "library/cell_library.hpp"
#include "netlist/network.hpp"
#include "place/placement.hpp"
#include "sym/gisg.hpp"

namespace rapids {

struct CrossSgCandidate {
  int enclosing_sg = -1;  // supergate whose pins make the outputs symmetric
  Pin pin_a, pin_b;       // enclosing leaf pins fed by the two roots
  int sg_a = -1;          // supergate rooted at driver_of(pin_a)
  int sg_b = -1;
  bool inverting = false; // enclosing swap polarity required (ES)
  /// Generation stamps of the three slots at enumeration time. The
  /// candidate is valid (safe to apply) exactly while every slot still
  /// carries its stamp (GisgPartition::slot_fresh) — incremental partition
  /// maintenance keeps the stamps stable across commits that do not touch
  /// these supergates.
  std::uint64_t gen_enclosing = 0;
  std::uint64_t gen_a = 0;
  std::uint64_t gen_b = 0;

  friend bool operator==(const CrossSgCandidate&, const CrossSgCandidate&) = default;
};

/// Find all cross-supergate swap opportunities in the partition: pairs of
/// swappable enclosing leaf pins whose drivers are single-fanout roots of
/// AND/OR supergates with equal leaf counts.
std::vector<CrossSgCandidate> find_cross_sg_candidates(const GisgPartition& part,
                                                       const Network& net);

struct CrossSgEdit {
  bool applied = false;
  int inverters_added = 0;
  int gates_retyped = 0;

  /// Exact undo journal: every reconnected leaf pin with its pre-swap
  /// driver, every inserted inverter, and every DeMorgan-retyped gate with
  /// its previous type/cell.
  struct PinRestore {
    Pin pin;
    GateId old_driver = kNullGate;
  };
  struct Retype {
    GateId gate = kNullGate;
    GateType old_type = GateType::Buf;
    std::int32_t old_cell = -1;
  };
  std::vector<PinRestore> moved_pins;
  std::vector<GateId> added_inverters;
  std::vector<Retype> retyped;
  /// Drivers whose nets changed sink sets or sink pin caps (for STA
  /// invalidation), deduplicated.
  std::vector<GateId> dirty_nets;
};

/// Execute the group swap. Leaf drivers are exchanged between the two
/// supergates (paired by literal polarity), gate types are DeMorgan-flipped
/// when required, and cell bindings follow the retyping. Placed cells do
/// not move. Returns the edit record (exact undo information included).
CrossSgEdit apply_cross_sg_swap(Network& net, Placement& placement, const CellLibrary& lib,
                                const GisgPartition& part, const CrossSgCandidate& cand);

/// As apply_cross_sg_swap, but fills a caller-owned edit record (cleared on
/// entry, capacity retained) so probe loops reuse its storage. `edit` must
/// not currently hold an applied, un-undone swap.
void apply_cross_sg_swap_into(Network& net, Placement& placement, const CellLibrary& lib,
                              const GisgPartition& part, const CrossSgCandidate& cand,
                              CrossSgEdit& edit);

/// Exact rollback of apply_cross_sg_swap: drivers restored, inserted
/// inverters deleted, DeMorgan retyping reversed.
void undo_cross_sg_swap(Network& net, Placement& placement, CrossSgEdit& edit);

}  // namespace rapids
