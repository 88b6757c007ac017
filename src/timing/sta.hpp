// Static timing analysis over a placed, mapped network.
//
// Arrival model per the paper §6: gate delay is pin-to-pin and
// load-dependent with rise/fall; interconnect delay is Elmore over a star
// RC for every net. Worst-case (max) analysis; required times / slacks
// against a single required time T (default: the initial critical delay).
//
// The optimizers rely on the transactional what-if interface: apply a
// candidate network edit, propagate(), read the objective, then rollback().
// Rollback restores arrivals and net caches exactly, so thousands of
// candidate moves can be probed cheaply without a full recompute.
//
// Flat timing rows: every gate keeps one TimingRow — its output delay at
// its current load plus an arc-kind byte — next to a per-pin wire-delay
// row. Rows are refreshed wherever their inputs change (rebuild_net for
// the load, touch_gate for the cell or type; grow adds default rows for
// minted slots, which get real ones when their nets are built), journaled
// for rollback and carried by copy_state_from and adopt_delta, so the
// propagation kernel and both backward passes read only flat arrays: no
// library lookups, no delay-model calls.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "library/cell_library.hpp"
#include "netlist/network.hpp"
#include "place/placement.hpp"
#include "timing/delay_model.hpp"
#include "timing/star_net.hpp"

namespace rapids {

/// How a gate's output arrival composes from its fanins.
enum class ArcKind : std::uint8_t {
  Const,     // constant driver: arrives at time 0
  Input,     // input pad: arrives after its pad drive into the net load
  Output,    // output marker: driver arrival plus the wire to the pad
  Positive,  // AND/OR/BUF
  Negative,  // NAND/NOR/INV
  Both,      // XOR/XNOR
};

/// One gate's build-once timing row (see the file comment).
struct TimingRow {
  RiseFall delay;  // output delay at the current load (Input: pad drive)
  ArcKind arc = ArcKind::Const;
  friend bool operator==(const TimingRow&, const TimingRow&) = default;
};

struct StaOptions {
  PadParams pads;
  /// Required time; negative means "use the critical delay of the first
  /// full run" (zero-slack baseline).
  double required_time = -1.0;
};

class Sta {
 public:
  /// Tag for the deferred constructor below.
  struct DeferInit {};

  /// Network must stay alive; all its logic gates must be mapped & placed.
  Sta(const Network& net, const CellLibrary& lib, const Placement& pl,
      const StaOptions& options = {});

  /// Bind without computing anything: no run_full(), no queries valid yet.
  /// The caller must run_full() or copy_state_from() before reading any
  /// result. Probe workers use this to build a replica Sta and then adopt
  /// the live engine's state instead of recomputing it.
  Sta(const Network& net, const CellLibrary& lib, const Placement& pl,
      const StaOptions& options, DeferInit);

  /// Adopt another Sta's entire computed state (net caches, arrivals,
  /// required times, critical delay) byte-for-byte. Both analyses must be
  /// outside transactions and bound to structurally identical networks
  /// (same id_bound; the source's state must be valid for this network's
  /// topology — a fresh clone qualifies). This is the parallel scheduler's
  /// replica-sync primitive: it is cheaper than run_full() and, unlike a
  /// recompute, guarantees the replica starts from bit-identical timing.
  void copy_state_from(const Sta& other);

  /// Full recompute of net caches, arrivals, required times and slacks.
  /// Also sizes the flat per-pin delay cache to the network's CURRENT
  /// maximum fanin count: incremental updates assert if a later mutation
  /// gives any gate more fanins than that bound — rerun run_full() after
  /// pin-count-growing edits (rewiring moves never grow pin counts).
  void run_full();

  // --- results ------------------------------------------------------------

  double critical_delay() const { return critical_delay_; }
  RiseFall arrival_rf(GateId g) const { return arrival_[g]; }
  double arrival(GateId g) const { return arrival_[g].worst(); }
  /// Read-only views over the full id-indexed arrival/required state:
  /// const, allocation-free, and safe to read concurrently as long as no
  /// thread is inside a transaction. Replica verification (tests) and any
  /// worker-side analysis read the shared Sta through these instead of
  /// per-gate calls.
  std::span<const RiseFall> arrivals() const { return {arrival_.data(), arrival_.size()}; }
  std::span<const RiseFall> requireds() const {
    return {required_.data(), required_.size()};
  }
  /// Worst slack of gate g's output (valid after run_full / refresh_required).
  double slack(GateId g) const;
  double worst_slack() const;
  double total_negative_slack() const;
  double required_time() const { return required_time_; }
  void set_required_time(double t) { required_time_ = t; }
  /// Sum of arrival times over all primary outputs (relaxation objective).
  /// Cached alongside critical_delay(); both are recomputed only when a
  /// primary-output arrival is stored.
  double sum_po_arrival() const { return sum_po_; }
  /// Gates on the worst path, from a primary input to the worst output.
  std::vector<GateId> critical_path() const;
  /// Cached star net of the net driven by g (valid for fanout_count>0).
  const StarNet& star(GateId g) const { return nets_[g]; }
  /// The id-indexed timing rows (live gates only are meaningful).
  std::span<const TimingRow> rows() const { return {rows_.data(), rows_.size()}; }
  /// Gate g's timing row computed from scratch from the current network,
  /// library and net cache — what rows()[g] must equal between calls.
  TimingRow fresh_row(GateId g) const;

  // --- transactional what-if interface -------------------------------------

  /// Begin a what-if transaction; nested transactions are not supported.
  void begin();
  /// Mark the net driven by `driver` dirty (sink set / pin caps / geometry
  /// changed). Call after editing the network, before propagate().
  void invalidate_net(GateId driver);
  /// Mark gate `g` dirty (its own cell/drive changed). Implies its output
  /// net delay changes; fanin nets must be invalidated separately when pin
  /// caps changed.
  void touch_gate(GateId g);
  /// True when no seed queued since the last propagate() (driver of an
  /// invalidated net, or touched gate) is marked in `mask`; ids past the
  /// mask's end count as unmarked.
  ///
  /// This is the critical-path pruning test. With `mask` marking the gates
  /// of critical_path() and no seed on it, every path gate keeps its row
  /// (cell, type, load), every path wire keeps its delay (its driver's net
  /// was not rebuilt) and every path pin keeps its driver (moving a pin
  /// rebuilds the old driver's net). Arrivals are IEEE max/+ compositions,
  /// monotone in each argument, so each path gate's new arrival is at
  /// least its old one and the worst primary output cannot get earlier:
  /// the probed critical delay is >= the current one. Callers that only
  /// accept a positive critical gain may skip propagate() for such a move.
  bool seeds_avoid(std::span<const std::uint8_t> mask) const;
  /// No bound: propagate() runs to the fixed point.
  static constexpr double kNoBound = std::numeric_limits<double>::infinity();
  /// Re-evaluate arrivals from all dirty seeds until the fixed point.
  /// Updates critical_delay(). Required times/slacks become stale.
  ///
  /// With a finite `abort_above` (cut-off 3 below), returns true when the
  /// drain stopped because the probed critical delay is proved to exceed
  /// it; critical_delay() and sum_po_arrival() then hold partial values
  /// and the transaction must be rolled back. Returns false otherwise.
  bool propagate(double abort_above = kNoBound);
  /// Discard the transaction: restore arrivals, net caches, critical delay.
  void rollback();
  /// Keep the transaction's results.
  void commit();
  bool in_transaction() const { return in_txn_; }

  /// Recompute required times and slacks from current arrivals (backward
  /// pass); cheap relative to run_full since net caches are reused.
  void refresh_required();

  // --- level-ordered, bounded-cone propagation -----------------------------
  //
  // propagate() drains a level-bucket queue. A queued gate waits in the
  // bucket of its forward level (levels come from run_full and every margin
  // refresh), buckets drain in ascending order, and an in-queue byte keeps
  // at most one entry per gate, so with current levels every fanin settles
  // before its sink is popped and each gate is recomputed once per drain.
  // Levels may go stale between refreshes: commits rewire pins, and gates
  // minted since the last level computation have none. A push below the
  // draining level, or of an unlevelled gate, joins the current bucket.
  // Staleness only costs extra pops, never different bits: the arrival
  // fixed point of a DAG is unique, and every gate is recomputed after its
  // last fanin change.
  //
  // Three objective-exact cut-offs keep probe cost proportional to the real
  // timing disturbance instead of the structural fanout cone:
  //
  //  1. Exact termination (always on): a popped gate whose recomputed
  //     arrival is BIT-IDENTICAL to the stored value queues nothing.
  //     Arrivals are pure functions of fanin arrivals and rows, so
  //     undisturbed cone tails recompute bit-equal and the frontier stops
  //     exactly where the disturbance does.
  //
  //  2. Slack-margin damping (active only when armed via
  //     set_damping_active and margins are fresh): refresh_damping_margins
  //     computes, per gate, the PO-seeded ceiling
  //         req_damp(g) = min over g→PO paths of
  //                       (arrival(PO) − downstream path delay)
  //     — structurally refresh_required() with each primary output seeded
  //     at its OWN current arrival instead of the global required time. A
  //     pure component-wise arrival increase at g that stays under this
  //     ceiling cannot raise any PO arrival (max analysis is monotone), so
  //     the drain defers it instead of storing/propagating. Soundness
  //     holds within a transaction via a forward-level guard (no dirty
  //     seed may sit downstream of a suppressed gate, since in-txn delay
  //     edits invalidate the refresh-time path delays) and a PO-decrease
  //     fallback (if the same transaction LOWERS any primary output below
  //     its refresh-time arrival, deferred gates are re-queued and the
  //     drain completes undamped — deferred gates stored nothing, so this
  //     is exact).
  //
  //  3. Bounded probes (only with a finite abort_above, damping armed and
  //     margins fresh): the margin refresh also records, per gate, its
  //     longest rise/fall path delay to any primary output (reach). When a
  //     gate popped in its own level bucket, strictly above every seed's
  //     level, has fresh arrival + reach > abort_above + 1e-6, the drain
  //     stops, empties the queue and reports the stop. Such a gate's
  //     downstream paths hold only refresh-time rows and wires: every
  //     edited pin, rebuilt net and touched row hangs off a seed below it
  //     (a minted, unlevelled seed disables the cut for the transaction).
  //     With levels current above the seeds its fanins have settled, and
  //     deferred increases only lower the popped value, so the value is at
  //     most the gate's final arrival. Max/+ composition is monotone, so
  //     some primary output ends above abort_above: the move's critical
  //     delay exceeds the caller's rejection line, and the cut changes no
  //     accepted move. Under set_damp_diff a stopped drain is finished
  //     undamped and unbounded, and the final critical delay must exceed
  //     abort_above.
  //
  // Margins are invalidated by any state-changing commit(), run_full(),
  // copy_state_from() and adopt_delta(); rollback() restores state exactly
  // and leaves them valid. Commits must run with damping inactive so the
  // stored inter-transaction state is always the true fixed point.

  /// Arm/disarm margin damping for subsequent propagate() calls. Damping
  /// only engages while margins_valid(); callers (the engine probe path)
  /// toggle this around probes and leave it off for commits.
  void set_damping_active(bool on) { damp_active_ = on; }
  bool damping_active() const { return damp_active_; }
  /// Differential self-check: after a damped fixed point, finish the
  /// drain undamped and assert every primary-output arrival is
  /// bit-identical; after a bounded stop, finish it undamped and unbounded
  /// and assert the critical delay exceeds the bound. Throws InternalError
  /// on a violation.
  void set_damp_diff(bool on) { damp_diff_ = on; }
  bool damp_diff() const { return damp_diff_; }
  /// Recompute per-gate damping ceilings, path delays to the primary
  /// outputs and forward levels from the current (committed, fixed-point)
  /// state. O(n) reverse pass; call at round granularity, never per-probe.
  void refresh_damping_margins();
  bool margins_valid() const { return margins_valid_; }

  /// Propagation-shape counters (monotonic, accumulated across the Sta's
  /// lifetime): queue pops, margin suppressions, PO-decrease fallbacks,
  /// and margin refreshes.
  std::uint64_t gates_propagated() const { return gates_propagated_; }
  std::uint64_t damp_cutoffs() const { return damp_cutoffs_; }
  std::uint64_t damp_fallbacks() const { return damp_fallbacks_; }
  std::uint64_t margin_refreshes() const { return margin_refreshes_; }

  // --- delta replica sync & slack epochs -----------------------------------

  /// Monotonic counter bumped by every run_full(). Delta replica sync is
  /// only valid while the source's version matches the one captured at the
  /// replica's last full sync; a mismatch means the id space / pin stride
  /// was rebuilt wholesale and the replica must fall back to
  /// copy_state_from().
  std::uint64_t state_version() const { return state_version_; }

  /// Timing epoch / per-gate arrival stamps. The epoch advances whenever a
  /// committed transaction changed any arrival (and on run_full);
  /// arrival_stamp(g) is the epoch of the last committed change to g's
  /// arrival. Candidate caches key arrival-gap pruning decisions on these
  /// to detect "slack context unchanged" without comparing floats.
  std::uint64_t timing_epoch() const { return timing_epoch_; }
  std::uint64_t arrival_stamp(GateId g) const {
    return g < arrival_stamp_.size() ? arrival_stamp_[g] : timing_epoch_;
  }

  /// While inside a transaction, append the ids whose arrivals (resp. star
  /// nets) the transaction has modified so far — exactly the state a
  /// commit() will change relative to begin(), because propagate() saves an
  /// arrival only when it actually differs. The engine records these into
  /// its replica-sync journal just before committing.
  void append_txn_changed_ids(std::vector<GateId>& arrival_ids,
                              std::vector<GateId>& net_ids) const;

  /// Adopt only the listed slices of `other`'s state (plus scalars):
  /// arrivals for arrival_ids, star nets, timing rows and pin-delay rows
  /// for net_ids, and timing rows for gate_ids — the structurally changed
  /// gates, which cover every cell or type change (a row depends on the
  /// type, the cell and the load, and a load change rebuilds a net). Both
  /// analyses must be outside transactions, pin strides must match, and
  /// the underlying networks must already be structurally identical
  /// (delta-adopt the network first). Required times become stale.
  /// Returns an estimate of the bytes copied.
  std::size_t adopt_delta(const Sta& other, std::span<const GateId> arrival_ids,
                          std::span<const GateId> net_ids,
                          std::span<const GateId> gate_ids);

 private:
  /// A per-gate flag byte. A scoped enum, not a plain uint8_t: a store
  /// through a character type may alias any object, which would make the
  /// compiler reload every member after each flag write in the drain loop.
  enum class Flag : std::uint8_t { Off, On };

  /// Extend id-indexed state for gates created mid-transaction (inverters
  /// inserted by rewiring).
  void grow();
  /// Resize every id-indexed array to n slots (never shrinks); new slots
  /// get default state, no level and never-suppress margins.
  void resize_slots(std::size_t n);
  void rebuild_net(GateId driver);
  /// Journal (inside a transaction) and recompute gate g's timing row.
  void refresh_row(GateId g);
  void recompute_arrival(GateId g, RiseFall& out) const;
  void save_arrival(GateId g);
  void save_net(GateId driver);
  /// Recompute critical_delay_ and sum_po_ from the primary outputs.
  void recompute_po_objectives();
  /// Forward levels over a topological `order`, strict through Output
  /// gates, plus the bucket count.
  void compute_levels(std::span<const GateId> order);
  /// Level-bucket queue (see the propagation comment above).
  void resize_buckets(std::size_t n);
  void push(GateId g);
  std::size_t bucket_of(GateId g) const;
  /// Lowest bucket >= `from` with queued gates; buckets_.size() if none.
  std::size_t next_queued_bucket(std::size_t from) const;
  /// Drop every queued gate (a bounded drain's stop).
  void clear_queue();
  /// Record a transaction seed's forward level into txn_max_dirty_level_
  /// (gates minted after the last margin refresh disable damping for the
  /// whole transaction).
  void note_dirty_level(GateId g);

  const Network& net_;
  const CellLibrary& lib_;
  const Placement& pl_;
  StaOptions options_;

  std::vector<StarNet> nets_;      // indexed by driver GateId
  std::vector<TimingRow> rows_;    // indexed by GateId
  std::vector<RiseFall> arrival_;  // at gate outputs
  std::vector<RiseFall> required_;
  // Flat per-in-pin wire delay cache, indexed gate * pin_stride_ + index.
  // Mirror of nets_[driver].branches[...].wire_delay, maintained by
  // rebuild_net and restored on rollback: recompute_arrival reads one
  // contiguous row instead of scanning the fanin nets' branch lists.
  std::vector<double> pin_delay_;
  std::uint32_t pin_stride_ = 1;
  std::vector<Flag> net_dirty_;  // net delay changed in this txn
  double critical_delay_ = 0.0;
  double sum_po_ = 0.0;
  double required_time_ = 0.0;
  bool required_valid_ = false;

  // Forward topo levels (strict through Outputs) from run_full or the last
  // margin refresh; slots minted since then hold the int max ("no level").
  // They order the queue and guard damping.
  std::vector<int> level_;
  std::vector<std::vector<GateId>> buckets_;  // queued gates, one per level
  // Bit b set = bucket b holds queued gates. A drain jumps between set bits
  // instead of walking every level of a deep circuit for a narrow cone.
  std::vector<std::uint64_t> queued_bits_;
  std::vector<Flag> in_queue_;
  std::size_t bucket_cur_ = 0;  // bucket being drained (0 outside a drain)

  // Damped-propagation state. req_damp_ and reach_ are refreshed with
  // level_ by refresh_damping_margins(); slots minted after a refresh
  // (mid-txn inverters) get never-suppress sentinels until the next refresh.
  std::vector<RiseFall> req_damp_;  // PO-seeded per-gate arrival ceiling
  // Longest rise/fall path delay from the gate's output to any primary
  // output (0 at an output, -inf with no path); the bounded-probe cut-off.
  std::vector<RiseFall> reach_;
  bool margins_valid_ = false;
  bool damp_active_ = false;
  bool damp_diff_ = false;
  int txn_max_dirty_level_ = 0;     // max forward level over this txn's seeds
  std::vector<GateId> deferred_;    // suppressed gates (propagate-local scratch)
  std::vector<RiseFall> diff_po_;   // damp-diff PO snapshot scratch
  std::uint64_t gates_propagated_ = 0;
  std::uint64_t damp_cutoffs_ = 0;
  std::uint64_t damp_fallbacks_ = 0;
  std::uint64_t margin_refreshes_ = 0;
  std::uint64_t state_version_ = 0;
  std::uint64_t timing_epoch_ = 0;
  std::vector<std::uint64_t> arrival_stamp_;

  // Transaction journal. All scratch storage is reused across transactions
  // (saved_nets_ keeps a live prefix of saved_net_count_ entries so the
  // StarNet branch vectors retain their capacity), which makes a steady
  // probe/rollback loop allocation-free after warm-up.
  bool in_txn_ = false;
  std::vector<std::pair<GateId, RiseFall>> saved_arrivals_;
  std::vector<std::pair<GateId, StarNet>> saved_nets_;
  std::size_t saved_net_count_ = 0;
  std::vector<std::pair<GateId, TimingRow>> saved_rows_;
  std::vector<GateId> txn_dirty_nets_;
  std::vector<GateId> seeds_;
  std::vector<Flag> arrival_saved_;  // per-gate flags for O(1) dedup
  std::vector<Flag> net_saved_;
  std::vector<Flag> row_saved_;
  double saved_critical_ = 0.0;
  double saved_sum_po_ = 0.0;
};

}  // namespace rapids
