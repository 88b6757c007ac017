// Generalized Implication Supergate (GISG) extraction — the paper's core.
//
// Definition 2 (§3.2): a GISG rooted at gate f is the set of gates in a
// fanout-free region that are either and-or-reachable (direct backward
// implication from f's trigger value) or xor-reachable (XOR/XNOR/INV/BUF
// chains) from f. Extraction starts from the primary outputs and processes
// gates in reverse topological order; multiple-fanout nodes and nodes where
// backward propagation stops become new roots. The result is a unique
// partition of the network into AND, OR and XOR supergates with inverters
// and buffers absorbed at their pins (the "supergate network").
//
// The algorithm touches every gate and pin a constant number of times:
// it is linear in network size (bench/linear_scaling demonstrates this).
//
// Incremental maintenance: because the partition is UNIQUE (independent of
// extraction order) and supergates never cross fanout-free-region (FFR)
// boundaries, a local network edit can only change the supergates of the
// FFRs it touches. reextract_region() dissolves exactly those FFRs' slots
// and re-runs extraction over them, splicing the results into the
// persistent partition: untouched supergates keep their slot index and
// generation stamp, freed slots are recycled like gate ids. This turns the
// per-commit partition cost from O(network) into O(affected region) — the
// prerequisite for 100k+-move long flows.
//
// Reconvergence bookkeeping: when two covered pins inside one supergate are
// driven by the same stem, the paper's Fig. 1 redundancies are detected for
// free; records are collected per supergate (so a region update re-derives
// records for re-extracted supergates only) and acted on in sym/redundancy.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "netlist/network.hpp"
#include "trace/metrics.hpp"

namespace rapids {

enum class SgType : std::uint8_t {
  Trivial,  // single covered gate, or a pure INV/BUF chain
  AndOr,    // computes AND/OR of literals of its leaf pins
  Xor,      // computes parity (possibly complemented) of its leaf pins
};

const char* to_string(SgType type);

/// An in-pin covered by a supergate, with the logic value assigned to it by
/// direct backward implication from the root (imp_value; -1 for XOR mode
/// where pins carry no implied value).
struct CoveredPin {
  Pin pin;
  int imp_value = -1;
  /// Driver of the pin at extraction time.
  GateId driver = kNullGate;
  /// True if the driver lies outside the supergate (the pin is a supergate
  /// fanin); false for pins internal to the supergate tree.
  bool leaf = false;
  /// Number of covered gates on the path from this pin to the root
  /// (pin of the root itself has depth 1).
  int depth = 0;
};

/// Redundancy discovered during extraction (Fig. 1).
struct RedundancyRecord {
  enum class Kind : std::uint8_t {
    /// Case 1: conflicting implied values at a stem — the root can never
    /// take its trigger value, so the root's function is constant.
    ConflictConstant,
    /// Case 2: equal implied values — one of the stem's branches is
    /// untestable; the second pin can be tied to its implied value.
    RedundantBranch,
    /// XOR extension: duplicate stem in a parity tree — the pair cancels.
    XorCancel,
  };

  Kind kind = Kind::RedundantBranch;
  GateId sg_root = kNullGate;
  GateId stem = kNullGate;  // the driver reached twice
  Pin pin_a, pin_b;         // covered pins driven by the stem
  int value_a = -1, value_b = -1;

  friend bool operator==(const RedundancyRecord& a, const RedundancyRecord& b) = default;
};

struct SuperGate {
  GateId root = kNullGate;
  SgType type = SgType::Trivial;
  /// Base function at the region below the root (And / Or / Xor / Buf);
  /// reported as the supergate "type" in the paper's terms.
  GateType root_fn = GateType::Buf;
  /// Covered gates, root first.
  std::vector<GateId> covered;
  /// For covered[i], the in-pin (inside this supergate) that its output
  /// drives; undefined Pin for the root.
  std::vector<Pin> parent_pin;
  /// Every covered in-pin (swap candidates live here).
  std::vector<CoveredPin> pins;
  /// Redundancies discovered while extracting this supergate (Fig. 1);
  /// GisgPartition::redundancies is the flattened view.
  std::vector<RedundancyRecord> redundancies;
  /// Number of leaf pins (the supergate's fanin count; Table 1 column L
  /// reports the maximum over the netlist).
  int num_leaves = 0;
  /// Stamp of the extraction batch (full or regional) that last built this
  /// slot. Candidates derived from a supergate are valid exactly while its
  /// slot's generation is unchanged — the per-sg replacement for the
  /// engine's any-commit-stales-everything epoch.
  std::uint64_t generation = 0;

  /// Paper: "A supergate is trivial if it only covers one gate."
  bool is_trivial() const { return covered.size() <= 1 || type == SgType::Trivial; }

  /// False for a recycled-but-unused slot in an incrementally maintained
  /// partition (no covered gates; is_trivial(), so statistics and candidate
  /// enumeration skip it naturally).
  bool live() const { return root != kNullGate; }
};

/// Per-update / accumulated counters for incremental partition maintenance.
/// `groups_reused` is filled by the optimizer layer (probe-group cache);
/// everything else by extract/reextract.
struct PartitionStats : NamedStats<PartitionStats> {
  std::uint64_t full_rebuilds = 0;
  std::uint64_t incremental_updates = 0;
  std::uint64_t sgs_reextracted = 0;
  std::uint64_t sgs_reused = 0;
  std::uint64_t gates_reextracted = 0;
  std::uint64_t groups_reused = 0;

  static constexpr auto fields() {
    using S = PartitionStats;
    return std::tuple{StatField{"partition.full_rebuilds", &S::full_rebuilds},
                      StatField{"partition.incremental_updates", &S::incremental_updates},
                      StatField{"partition.sgs_reextracted", &S::sgs_reextracted},
                      StatField{"partition.sgs_reused", &S::sgs_reused},
                      StatField{"partition.gates_reextracted", &S::gates_reextracted},
                      StatField{"partition.groups_reused", &S::groups_reused}};
  }
};

struct GisgPartition {
  /// Supergate slots. Dense after a full extraction; an incrementally
  /// maintained partition may contain dead slots (live() == false) whose
  /// indices are recycled by later region updates.
  std::vector<SuperGate> sgs;
  /// Supergate slot covering each gate; -1 for boundary (Input/Output/
  /// Const) gates and dead ids.
  std::vector<std::int32_t> sg_of_gate;
  /// Flattened view of every live slot's redundancy records (slot-ascending
  /// after incremental updates; extraction order after a full build).
  /// Incremental updates rebuild it only when an update actually removed or
  /// added records — redundancies are rare, so the common splice skips the
  /// O(slots) pass entirely.
  std::vector<RedundancyRecord> redundancies;
  /// Dead slot indices, ascending (recycled before the sgs vector grows).
  std::vector<std::int32_t> free_slots;
  /// Live slot count, maintained by extract/reextract (== num_live(); kept
  /// as a field so incremental updates need no O(slots) scan).
  std::size_t live_slots = 0;
  /// Monotone extraction-batch counter; every (re)extracted supergate is
  /// stamped with the batch that built it. Never reset, including across
  /// full rebuilds through extract_gisg_into — so a stamp held by a stale
  /// candidate can never collide with a later slot reuse.
  std::uint64_t generation = 0;

  const SuperGate* sg_containing(GateId g) const;

  /// True when `slot` is in range, live, and still carries `generation` —
  /// the freshness test for candidates that index the partition.
  bool slot_fresh(int slot, std::uint64_t gen) const {
    return slot >= 0 && static_cast<std::size_t>(slot) < sgs.size() &&
           sgs[static_cast<std::size_t>(slot)].live() &&
           sgs[static_cast<std::size_t>(slot)].generation == gen;
  }

  std::size_t num_live() const;

  // --- Table 1 statistics -------------------------------------------------
  /// Fraction (0..1) of logic gates covered by non-trivial supergates
  /// (column "gsg cov %").
  double nontrivial_coverage(const Network& net) const;
  /// Largest supergate fanin count (column "L").
  int max_leaves() const;
  std::size_t num_nontrivial() const;
};

/// Extract the unique supergate partition of `net`. Linear time.
GisgPartition extract_gisg(const Network& net);

/// Full re-extraction IN PLACE: storage is reused and — critically — the
/// partition's generation counter advances instead of resetting, so
/// candidates stamped before the rebuild are recognizably stale.
void extract_gisg_into(GisgPartition& part, const Network& net);

/// Reusable scratch for reextract_region: generation-stamped id-indexed
/// visit arrays and region worklists that would otherwise be allocated (and
/// zero-filled — O(network), defeating the O(affected region) update) on
/// every call. One instance per maintained partition stream (the engine
/// owns one); carries no semantic state between calls.
struct GisgRegionScratch {
  std::vector<std::uint64_t> in_ffr;
  std::vector<std::uint64_t> root_seen;
  std::uint64_t stamp = 0;
  std::vector<int> depth;
  std::vector<GateId> roots;
  std::vector<GateId> ffr_gates;
  std::vector<GateId> dfs;
  std::vector<std::int32_t> avail;
  std::vector<std::int32_t> dissolved;
};

/// Incrementally maintain `part` after local network edits. `dirty_seeds`
/// must name every gate whose type, fanin list or fanout set changed since
/// the partition last matched the network, plus the current fanout gates of
/// each such gate (duplicates and non-logic ids are fine and filtered).
///
/// The update dissolves every supergate intersecting the fanout-free
/// regions of the seeds (with a two-way closure: a dissolved supergate's
/// stray gates seed further regions, and re-covering a gate owned by a
/// clean supergate dissolves that one too), re-runs extraction over exactly
/// those regions, and splices the new supergates into recycled slots.
/// Untouched slots keep their generation. The result is canonically
/// identical to a fresh extract_gisg of the current network (asserted by
/// tests and the fuzzer's extract-diff row).
///
/// Precondition: no gate covered by `part` has been deleted (gate deletion
/// — e.g. remove_dangling_inverters — requires a full rebuild).
///
/// Pass a caller-owned `scratch` on hot paths (the engine does) to make the
/// update allocation-free; with nullptr a throwaway scratch is used.
PartitionStats reextract_region(GisgPartition& part, const Network& net,
                                std::span<const GateId> dirty_seeds,
                                GisgRegionScratch* scratch = nullptr);

/// Canonical partition equality: identical gate→supergate covering with
/// per-supergate contents (root, type, pins, implied values, redundancy
/// records) compared exactly, but insensitive to slot numbering, dead
/// slots, and the order of the flattened redundancy view. On mismatch,
/// writes a one-line description to `diag` when non-null.
bool partitions_canonically_equal(const GisgPartition& a, const GisgPartition& b,
                                  std::string* diag = nullptr);

}  // namespace rapids
