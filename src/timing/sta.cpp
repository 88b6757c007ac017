#include "timing/sta.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "netlist/topo.hpp"
#include "util/assert.hpp"

namespace rapids {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr int kNoLevel = std::numeric_limits<int>::max();

// Propagation terminates on BIT-EXACT equality: recompute_arrival is a pure
// function of fanin arrivals and timing rows, so gates outside the true
// disturbance cone recompute bit-identically and queue nothing —
// incremental propagation is bitwise equal to a full recompute, with no
// epsilon drift to paper over.
bool differs(const RiseFall& a, const RiseFall& b) {
  return a.rise != b.rise || a.fall != b.fall;
}

bool same_bits(const TimingRow& a, const TimingRow& b) {
  return a.arc == b.arc &&
         std::bit_cast<std::uint64_t>(a.delay.rise) ==
             std::bit_cast<std::uint64_t>(b.delay.rise) &&
         std::bit_cast<std::uint64_t>(a.delay.fall) ==
             std::bit_cast<std::uint64_t>(b.delay.fall);
}

ArcKind arc_kind(GateType t) {
  switch (arc_sense(t)) {
    case ArcSense::Positive:
      return ArcKind::Positive;
    case ArcSense::Negative:
      return ArcKind::Negative;
    case ArcSense::Both:
      break;
  }
  return ArcKind::Both;
}

// Longest path delays to the primary outputs through one sink gate's arc:
// the input-rise and input-fall transitions, given the sink output's own
// reach `out` and its arc delays `d`.
RiseFall reach_through(ArcKind arc, const RiseFall& d, const RiseFall& out) {
  RiseFall in{-kInf, -kInf};
  if (arc == ArcKind::Positive || arc == ArcKind::Both) {
    in.rise = std::max(in.rise, d.rise + out.rise);
    in.fall = std::max(in.fall, d.fall + out.fall);
  }
  if (arc == ArcKind::Negative || arc == ArcKind::Both) {
    in.rise = std::max(in.rise, d.fall + out.fall);
    in.fall = std::max(in.fall, d.rise + out.rise);
  }
  return in;
}

ArcSense arc_sense_of(ArcKind k) {
  switch (k) {
    case ArcKind::Positive:
      return ArcSense::Positive;
    case ArcKind::Negative:
      return ArcSense::Negative;
    default:
      return ArcSense::Both;
  }
}

// Max-accumulate every fanin pin of a logic gate through its arcs, with the
// arc sense fixed at compile time. The per-pin operation order is exactly
// accumulate_arc's (positive arcs, then negative), so the max keeps the
// same operand on ties and the result bits match the delay model's.
template <ArcKind kArc>
RiseFall accumulate_pins(std::span<const GateId> fanins, const double* wires,
                         const RiseFall* arrival, const RiseFall& d) {
  RiseFall acc{-kInf, -kInf};
  for (std::size_t i = 0; i < fanins.size(); ++i) {
    const RiseFall a = arrival[fanins[i]];
    const double rise = a.rise + wires[i];
    const double fall = a.fall + wires[i];
    if constexpr (kArc == ArcKind::Positive || kArc == ArcKind::Both) {
      acc.rise = std::max(acc.rise, rise + d.rise);
      acc.fall = std::max(acc.fall, fall + d.fall);
    }
    if constexpr (kArc == ArcKind::Negative || kArc == ArcKind::Both) {
      acc.rise = std::max(acc.rise, fall + d.rise);
      acc.fall = std::max(acc.fall, rise + d.fall);
    }
  }
  return acc;
}
}  // namespace

Sta::Sta(const Network& net, const CellLibrary& lib, const Placement& pl,
         const StaOptions& options)
    : net_(net), lib_(lib), pl_(pl), options_(options) {
  run_full();
  if (options_.required_time >= 0.0) {
    required_time_ = options_.required_time;
  } else {
    required_time_ = critical_delay_;
  }
  refresh_required();
}

Sta::Sta(const Network& net, const CellLibrary& lib, const Placement& pl,
         const StaOptions& options, DeferInit)
    : net_(net), lib_(lib), pl_(pl), options_(options) {}

void Sta::copy_state_from(const Sta& other) {
  RAPIDS_ASSERT_MSG(!in_txn_ && !other.in_txn_,
                    "copy_state_from requires both analyses outside transactions");
  RAPIDS_ASSERT_MSG(net_.id_bound() == other.net_.id_bound(),
                    "copy_state_from requires identically sized networks");
  nets_ = other.nets_;
  rows_ = other.rows_;
  arrival_ = other.arrival_;
  required_ = other.required_;
  pin_delay_ = other.pin_delay_;
  pin_stride_ = other.pin_stride_;
  level_ = other.level_;
  resize_buckets(other.buckets_.size());
  critical_delay_ = other.critical_delay_;
  sum_po_ = other.sum_po_;
  required_time_ = other.required_time_;
  required_valid_ = other.required_valid_;
  // Full options, not just pads: a later run_full() on the adopted Sta
  // must re-resolve the SAME required-time policy as the source.
  options_ = other.options_;
  state_version_ = other.state_version_;
  timing_epoch_ = other.timing_epoch_;
  arrival_stamp_ = other.arrival_stamp_;
  const std::size_t n = net_.id_bound();
  net_dirty_.assign(n, Flag::Off);
  arrival_saved_.assign(n, Flag::Off);
  net_saved_.assign(n, Flag::Off);
  row_saved_.assign(n, Flag::Off);
  in_queue_.assign(n, Flag::Off);
  saved_arrivals_.clear();
  saved_net_count_ = 0;
  saved_rows_.clear();
  txn_dirty_nets_.clear();
  seeds_.clear();
  // Margins are anchored to the source's committed state, which this copy
  // now mirrors — but they are cheap to recompute and not synced, so the
  // replica refreshes its own.
  margins_valid_ = false;
}

TimingRow Sta::fresh_row(GateId g) const {
  const GateType t = net_.type(g);
  switch (t) {
    case GateType::Const0:
    case GateType::Const1:
      return TimingRow{RiseFall{0.0, 0.0}, ArcKind::Const};
    case GateType::Input: {
      // Input pad drives its net with a fixed pad resistance.
      const double d = options_.pads.pad_drive_res * nets_[g].total_cap();
      return TimingRow{RiseFall{d, d}, ArcKind::Input};
    }
    case GateType::Output:
      return TimingRow{RiseFall{0.0, 0.0}, ArcKind::Output};
    default: {
      const std::int32_t ci = net_.cell(g);
      RAPIDS_ASSERT_MSG(ci >= 0, "STA requires mapped gate: " + net_.name(g));
      return TimingRow{gate_delay(lib_.cell(ci), nets_[g].total_cap()), arc_kind(t)};
    }
  }
}

void Sta::refresh_row(GateId g) {
  // Tombstones keep no row: a recycled id gets one when its net is rebuilt.
  if (net_.is_deleted(g)) return;
  const TimingRow row = fresh_row(g);
  // A rebuild that kept the load bit-for-bit (a pin permutation on one
  // sink gate) leaves nothing to journal.
  if (same_bits(row, rows_[g])) return;
  if (in_txn_ && row_saved_[g] == Flag::Off) {
    row_saved_[g] = Flag::On;
    saved_rows_.emplace_back(g, rows_[g]);
  }
  rows_[g] = row;
}

void Sta::rebuild_net(GateId driver) {
  StarNet& star = nets_[driver];
  build_star_net_into(star, net_, lib_, pl_, driver, options_.pads);
  for (const StarBranch& b : star.branches) {
    RAPIDS_ASSERT_MSG(b.pin.index < pin_stride_,
                      "gate gained fanins beyond the run_full() bound");
    pin_delay_[b.pin.gate * pin_stride_ + b.pin.index] = b.wire_delay;
  }
  // The load may have changed, and with it the driver's output delay.
  refresh_row(driver);
}

void Sta::recompute_arrival(GateId g, RiseFall& out) const {
  const TimingRow& row = rows_[g];
  switch (row.arc) {
    case ArcKind::Const:
    case ArcKind::Input:
      out = row.delay;
      return;
    case ArcKind::Output: {
      const RiseFall a = arrival_[net_.fanin(g, 0)];
      const double wire = pin_delay_[g * pin_stride_];
      out = RiseFall{a.rise + wire, a.fall + wire};
      return;
    }
    case ArcKind::Positive:
      out = accumulate_pins<ArcKind::Positive>(
          net_.fanins(g), pin_delay_.data() + g * pin_stride_, arrival_.data(),
          row.delay);
      return;
    case ArcKind::Negative:
      out = accumulate_pins<ArcKind::Negative>(
          net_.fanins(g), pin_delay_.data() + g * pin_stride_, arrival_.data(),
          row.delay);
      return;
    case ArcKind::Both:
      out = accumulate_pins<ArcKind::Both>(
          net_.fanins(g), pin_delay_.data() + g * pin_stride_, arrival_.data(),
          row.delay);
      return;
  }
}

void Sta::recompute_po_objectives() {
  double worst = 0.0;
  double total = 0.0;
  for (const GateId po : net_.primary_outputs()) {
    const double a = arrival_[po].worst();
    worst = std::max(worst, a);
    total += a;
  }
  critical_delay_ = worst;
  sum_po_ = total;
}

void Sta::compute_levels(std::span<const GateId> order) {
  // Forward levels, strict through Output gates (unlike logic_levels, which
  // lets an Output share its driver's level): the damping guard needs
  // level(u) < level(v) for EVERY edge u→v so "no seed at level >= mine"
  // implies "no seed strictly downstream of me".
  level_.assign(arrival_.size(), 0);
  int top = 0;
  for (const GateId g : order) {
    int lv = 0;
    for (const GateId f : net_.fanins(g)) {
      lv = std::max(lv, level_[f] + 1);
    }
    level_[g] = lv;
    top = std::max(top, lv);
  }
  resize_buckets(static_cast<std::size_t>(top) + 1);
}

void Sta::resize_buckets(std::size_t n) {
  // Only called between drains, when every bucket is empty.
  buckets_.resize(n);
  queued_bits_.assign((n + 63) / 64, 0);
}

void Sta::run_full() {
  const std::size_t n = net_.id_bound();
  nets_.assign(n, StarNet{});
  rows_.assign(n, TimingRow{});
  arrival_.assign(n, RiseFall{});
  required_.assign(n, RiseFall{});
  net_dirty_.assign(n, Flag::Off);
  arrival_saved_.assign(n, Flag::Off);
  net_saved_.assign(n, Flag::Off);
  row_saved_.assign(n, Flag::Off);
  in_queue_.assign(n, Flag::Off);
  pin_stride_ = 1;
  net_.for_each_gate([&](GateId g) {
    pin_stride_ = std::max(pin_stride_, net_.fanin_count(g));
  });
  pin_delay_.assign(n * pin_stride_, 0.0);
  net_.for_each_gate([&](GateId g) {
    if (net_.fanout_count(g) > 0) {
      rebuild_net(g);
    } else {
      rows_[g] = fresh_row(g);
    }
  });
  const std::vector<GateId> order = topological_order(net_);
  compute_levels(order);
  for (const GateId g : order) recompute_arrival(g, arrival_[g]);
  recompute_po_objectives();
  required_valid_ = false;
  margins_valid_ = false;
  ++state_version_;
  ++timing_epoch_;
  arrival_stamp_.assign(n, timing_epoch_);
}

double Sta::slack(GateId g) const {
  RAPIDS_ASSERT_MSG(required_valid_, "slacks stale: call refresh_required()");
  const RiseFall r = required_[g];
  const RiseFall a = arrival_[g];
  return std::min(r.rise - a.rise, r.fall - a.fall);
}

double Sta::worst_slack() const {
  double worst = kInf;
  net_.for_each_gate([&](GateId g) {
    if (is_logic(net_.type(g)) || net_.type(g) == GateType::Output) {
      worst = std::min(worst, slack(g));
    }
  });
  return worst;
}

double Sta::total_negative_slack() const {
  double total = 0.0;
  for (const GateId po : net_.primary_outputs()) {
    const double s = slack(po);
    if (s < 0) total += s;
  }
  return total;
}

std::vector<GateId> Sta::critical_path() const {
  // Transition-aware backtrace: follow, per gate, the (fanin, transition)
  // whose wire-adjusted arrival plus the gate's arc delay reproduces this
  // gate's arrival in the traced transition. Greedy max is exact because
  // arrivals are max-compositions of the same arcs.
  GateId worst_po = kNullGate;
  double worst = -kInf;
  for (const GateId po : net_.primary_outputs()) {
    if (arrival_[po].worst() > worst) {
      worst = arrival_[po].worst();
      worst_po = po;
    }
  }
  std::vector<GateId> path;
  if (worst_po == kNullGate) return path;

  GateId g = worst_po;
  bool rising = arrival_[g].rise >= arrival_[g].fall;
  path.push_back(g);
  while (net_.fanin_count(g) > 0) {
    const ArcKind arc = rows_[g].arc;
    GateId best = kNullGate;
    bool best_rising = rising;
    double best_arrival = -kInf;
    const auto fanins = net_.fanins(g);
    if (arc == ArcKind::Output) {
      best = fanins[0];  // wire-only hop keeps the transition
    } else {
      const double* wires = pin_delay_.data() + g * pin_stride_;
      for (std::uint32_t i = 0; i < fanins.size(); ++i) {
        const GateId f = fanins[i];
        // Input transitions that can produce an output transition `rising`.
        for (const bool in_rising : {true, false}) {
          const bool reachable =
              arc == ArcKind::Both ||
              (arc == ArcKind::Positive && in_rising == rising) ||
              (arc == ArcKind::Negative && in_rising != rising);
          if (!reachable) continue;
          const double a =
              (in_rising ? arrival_[f].rise : arrival_[f].fall) + wires[i];
          if (a > best_arrival) {
            best_arrival = a;
            best = f;
            best_rising = in_rising;
          }
        }
      }
    }
    RAPIDS_ASSERT(best != kNullGate);
    g = best;
    rising = best_rising;
    path.push_back(g);
    if (rows_[g].arc == ArcKind::Input || rows_[g].arc == ArcKind::Const) break;
  }
  std::reverse(path.begin(), path.end());
  return path;
}

void Sta::begin() {
  RAPIDS_ASSERT_MSG(!in_txn_, "nested STA transactions are not supported");
  in_txn_ = true;
  saved_critical_ = critical_delay_;
  saved_sum_po_ = sum_po_;
  saved_arrivals_.clear();
  saved_net_count_ = 0;
  saved_rows_.clear();
  txn_dirty_nets_.clear();
  seeds_.clear();
  txn_max_dirty_level_ = 0;
}

void Sta::save_arrival(GateId g) {
  if (arrival_saved_[g] == Flag::On) return;
  arrival_saved_[g] = Flag::On;
  saved_arrivals_.emplace_back(g, arrival_[g]);
}

void Sta::save_net(GateId driver) {
  if (net_saved_[driver] == Flag::On) return;
  net_saved_[driver] = Flag::On;
  // Reuse journal slots: copy-assignment into an existing slot keeps its
  // branch-vector capacity, so steady-state probing never allocates here.
  if (saved_net_count_ < saved_nets_.size()) {
    auto& slot = saved_nets_[saved_net_count_];
    slot.first = driver;
    slot.second = nets_[driver];
  } else {
    saved_nets_.emplace_back(driver, nets_[driver]);
  }
  ++saved_net_count_;
}

void Sta::resize_slots(std::size_t n) {
  if (nets_.size() >= n) return;
  nets_.resize(n);
  rows_.resize(n);
  arrival_.resize(n);
  required_.resize(n);
  net_dirty_.resize(n, Flag::Off);
  arrival_saved_.resize(n, Flag::Off);
  net_saved_.resize(n, Flag::Off);
  row_saved_.resize(n, Flag::Off);
  in_queue_.resize(n, Flag::Off);
  arrival_stamp_.resize(n, timing_epoch_);
  pin_delay_.resize(n * pin_stride_, 0.0);
  // Slots minted after the last level computation have no level: they
  // join the bucket being drained, and a +inf level disables damping for
  // any transaction that seeds through them. A -inf ceiling fails the
  // fresh <= req_damp test, so they are never suppressed either.
  level_.resize(n, kNoLevel);
  if (!req_damp_.empty()) req_damp_.resize(n, RiseFall{-kInf, -kInf});
  if (!reach_.empty()) reach_.resize(n, RiseFall{-kInf, -kInf});
}

void Sta::grow() { resize_slots(net_.id_bound()); }

void Sta::note_dirty_level(GateId g) {
  txn_max_dirty_level_ = std::max(txn_max_dirty_level_, level_[g]);
}

std::size_t Sta::bucket_of(GateId g) const {
  // Unlevelled (minted) gates and gates whose stale level lies below the
  // bucket being drained both join the current bucket.
  const int lv = level_[g];
  if (lv >= static_cast<int>(buckets_.size())) return bucket_cur_;
  return std::max(static_cast<std::size_t>(lv), bucket_cur_);
}

void Sta::push(GateId g) {
  // Callers never pass tombstones: seeds are filtered in propagate(), and a
  // live gate's sinks are live.
  if (in_queue_[g] == Flag::On) return;
  in_queue_[g] = Flag::On;
  const std::size_t b = bucket_of(g);
  buckets_[b].push_back(g);
  queued_bits_[b / 64] |= std::uint64_t{1} << (b % 64);
}

void Sta::clear_queue() {
  for (std::size_t b = next_queued_bucket(0); b < buckets_.size();
       b = next_queued_bucket(b + 1)) {
    for (const GateId g : buckets_[b]) in_queue_[g] = Flag::Off;
    buckets_[b].clear();
    queued_bits_[b / 64] &= ~(std::uint64_t{1} << (b % 64));
  }
  bucket_cur_ = 0;
}

std::size_t Sta::next_queued_bucket(std::size_t from) const {
  std::size_t w = from / 64;
  if (w >= queued_bits_.size()) return buckets_.size();
  std::uint64_t bits = queued_bits_[w] & (~std::uint64_t{0} << (from % 64));
  while (bits == 0) {
    if (++w == queued_bits_.size()) return buckets_.size();
    bits = queued_bits_[w];
  }
  return w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
}

void Sta::invalidate_net(GateId driver) {
  RAPIDS_ASSERT(in_txn_);
  grow();
  save_net(driver);
  rebuild_net(driver);
  if (net_dirty_[driver] == Flag::Off) {
    net_dirty_[driver] = Flag::On;
    txn_dirty_nets_.push_back(driver);
  }
  note_dirty_level(driver);
  seeds_.push_back(driver);
}

void Sta::touch_gate(GateId g) {
  RAPIDS_ASSERT(in_txn_);
  grow();
  refresh_row(g);
  note_dirty_level(g);
  seeds_.push_back(g);
}

bool Sta::seeds_avoid(std::span<const std::uint8_t> mask) const {
  for (const GateId s : seeds_) {
    if (s < mask.size() && mask[s]) return false;
  }
  return true;
}

bool Sta::propagate(double abort_above) {
  RAPIDS_ASSERT(in_txn_);
  // Level-ordered relaxation to the fixed point (see the header). Seeds
  // are recomputed unconditionally; a gate's fanouts are queued when its
  // arrival changed (or its net RC changed, which shifts wire delay at the
  // sinks). Buckets keep their capacity across calls, so a steady probe
  // loop does not allocate here.
  deferred_.clear();
  for (const GateId s : seeds_) {
    // A reverted commit invalidates the nets of the inverters it deleted.
    if (!net_.is_deleted(s)) push(s);
  }

  std::size_t iterations = 0;
  const std::size_t hard_cap = 64 * (net_.num_gates() + 16);
  bool po_decreased = false;
  bool po_stored = false;
  bool stopped = false;
  // The rounding guard of the ceilings (see refresh_damping_margins) also
  // absorbs the skew between the backward reach sums and forward arrivals.
  constexpr double kBoundGuard = 1e-6;
  const double bound = abort_above + kBoundGuard;
  // A bounded drain that stops returns with the queue emptied.
  const auto drain = [&](bool damp, bool bounded) {
    for (std::size_t b = next_queued_bucket(0); b < buckets_.size();
         b = next_queued_bucket(b + 1)) {
      bucket_cur_ = b;
      std::vector<GateId>& bucket = buckets_[b];
      // Indexed, not iterated: pushes may append to this very bucket.
      for (std::size_t i = 0; i < bucket.size(); ++i) {
        RAPIDS_ASSERT_MSG(++iterations < hard_cap, "STA propagation did not converge");
        const GateId g = bucket[i];
        in_queue_[g] = Flag::Off;
        RiseFall fresh;
        recompute_arrival(g, fresh);
        if (!differs(fresh, arrival_[g])) {
          // Cut-off 1: bit-identical recompute — the disturbance cone ends
          // here. A dirty net still forces the sinks once (their wire
          // delays changed even though this arrival did not).
          if (net_dirty_[g] == Flag::On) {
            net_dirty_[g] = Flag::Off;
            for (const Pin& pin : net_.fanouts(g)) push(pin.gate);
          }
          continue;
        }
        // Cut-off 2: a pure component-wise increase that stays under the
        // PO-seeded ceiling cannot raise any primary-output arrival. Two
        // guards keep the ceiling sound against in-transaction delay edits:
        // the level guard — no seed may sit strictly downstream of g
        // (forward levels strictly increase along paths), so every gate and
        // wire delay strictly below g still matches the refresh-time value —
        // and the net guard (!net_saved_) — g's OWN net is untouched this
        // transaction, so the first-hop wire delays match too (net_dirty_ is
        // cleared on first processing, but the RC change outlives it).
        // Nothing is stored — the PO-decrease fallback below can replay
        // exactly.
        if (damp && net_dirty_[g] == Flag::Off && net_saved_[g] == Flag::Off &&
            level_[g] >= txn_max_dirty_level_ && fresh.rise >= arrival_[g].rise &&
            fresh.fall >= arrival_[g].fall && fresh.rise <= req_damp_[g].rise &&
            fresh.fall <= req_damp_[g].fall) {
          deferred_.push_back(g);
          ++damp_cutoffs_;
          continue;
        }
        // Cut-off 3: g sits strictly above every seed and is popped in its
        // own bucket, so its refresh-time paths to the outputs are intact
        // and `fresh` is at most its final arrival (see the header).
        if (bounded && level_[g] > txn_max_dirty_level_ &&
            static_cast<std::size_t>(level_[g]) == b &&
            (fresh.rise + reach_[g].rise > bound || fresh.fall + reach_[g].fall > bound)) {
          clear_queue();
          stopped = true;
          return;
        }
        const bool is_po = rows_[g].arc == ArcKind::Output;
        if (is_po && (fresh.rise < arrival_[g].rise || fresh.fall < arrival_[g].fall)) {
          po_decreased = true;
        }
        po_stored = po_stored || is_po;
        save_arrival(g);
        arrival_[g] = fresh;
        net_dirty_[g] = Flag::Off;
        for (const Pin& pin : net_.fanouts(g)) push(pin.gate);
      }
      bucket.clear();
      queued_bits_[b / 64] &= ~(std::uint64_t{1} << (b % 64));
    }
    bucket_cur_ = 0;
  };
  const bool damp = damp_active_ && margins_valid_;
  drain(damp, damp && abort_above < kNoBound);
  if (stopped) {
    if (damp_diff_) {
      // Differential self-check: finish undamped and unbounded from every
      // gate whose inputs changed this transaction — the seeds, the sinks
      // of every rebuilt net and the fanouts of every stored arrival — and
      // require the final critical delay to exceed the bound.
      for (const GateId s : seeds_) {
        if (!net_.is_deleted(s)) push(s);
      }
      for (const GateId d : txn_dirty_nets_) {
        if (net_.is_deleted(d)) continue;
        net_dirty_[d] = Flag::On;
        push(d);
      }
      for (const auto& [g, a] : saved_arrivals_) {
        (void)a;
        for (const Pin& pin : net_.fanouts(g)) push(pin.gate);
      }
      drain(false, false);
      recompute_po_objectives();
      RAPIDS_ASSERT_MSG(critical_delay_ > abort_above,
                        "timing-damp-diff: bounded probe stopped above " +
                            std::to_string(abort_above) + " but its critical delay is " +
                            std::to_string(critical_delay_));
    }
  } else if (po_decreased && !deferred_.empty()) {
    // A primary output dropped below the arrival the ceilings were seeded
    // from, so a suppressed increase elsewhere could now own the max.
    // Deferred gates stored nothing — replay them undamped.
    ++damp_fallbacks_;
    for (const GateId g : deferred_) push(g);
    deferred_.clear();
    drain(false, false);
  }
  if (!stopped && damp_diff_ && !deferred_.empty()) {
    // Differential self-check: finishing the drain undamped must leave
    // every primary-output arrival bit-identical to the damped fixed point.
    diff_po_.clear();
    for (const GateId po : net_.primary_outputs()) diff_po_.push_back(arrival_[po]);
    for (const GateId g : deferred_) push(g);
    deferred_.clear();
    drain(false, false);
    std::size_t i = 0;
    for (const GateId po : net_.primary_outputs()) {
      RAPIDS_ASSERT_MSG(!differs(arrival_[po], diff_po_[i]),
                        "timing-damp-diff: damped propagation perturbed PO " +
                            net_.name(po) + " rise " +
                            std::to_string(diff_po_[i].rise) + " -> " +
                            std::to_string(arrival_[po].rise) + " fall " +
                            std::to_string(diff_po_[i].fall) + " -> " +
                            std::to_string(arrival_[po].fall));
      ++i;
    }
  }
  seeds_.clear();
  gates_propagated_ += iterations;  // every pop of every drain
  // Unstored primary outputs keep their arrivals, so the cached objectives
  // stay exact without a pass over the outputs.
  if (po_stored) recompute_po_objectives();
  required_valid_ = false;
  return stopped;
}

void Sta::rollback() {
  RAPIDS_ASSERT(in_txn_);
  for (const auto& [g, a] : saved_arrivals_) {
    arrival_[g] = a;
    arrival_saved_[g] = Flag::Off;
  }
  for (std::size_t i = 0; i < saved_net_count_; ++i) {
    const auto& [d, s] = saved_nets_[i];
    nets_[d] = s;
    net_saved_[d] = Flag::Off;
    for (const StarBranch& b : s.branches) {
      pin_delay_[b.pin.gate * pin_stride_ + b.pin.index] = b.wire_delay;
    }
  }
  for (const auto& [g, r] : saved_rows_) {
    rows_[g] = r;
    row_saved_[g] = Flag::Off;
  }
  for (const GateId d : txn_dirty_nets_) net_dirty_[d] = Flag::Off;
  saved_arrivals_.clear();
  saved_net_count_ = 0;
  saved_rows_.clear();
  txn_dirty_nets_.clear();
  seeds_.clear();
  critical_delay_ = saved_critical_;
  sum_po_ = saved_sum_po_;
  in_txn_ = false;
}

void Sta::commit() {
  RAPIDS_ASSERT(in_txn_);
  // Committed arrival or net-delay changes stale the damping ceilings
  // (they bake in PO arrivals AND path delays); rollback restores state
  // exactly and deliberately leaves them valid.
  if (!saved_arrivals_.empty() || saved_net_count_ > 0) margins_valid_ = false;
  if (!saved_arrivals_.empty()) ++timing_epoch_;
  for (const auto& [g, a] : saved_arrivals_) {
    (void)a;
    arrival_saved_[g] = Flag::Off;
    arrival_stamp_[g] = timing_epoch_;
  }
  for (std::size_t i = 0; i < saved_net_count_; ++i) {
    net_saved_[saved_nets_[i].first] = Flag::Off;
  }
  for (const auto& [g, r] : saved_rows_) {
    (void)r;
    row_saved_[g] = Flag::Off;
  }
  for (const GateId d : txn_dirty_nets_) net_dirty_[d] = Flag::Off;
  saved_arrivals_.clear();
  saved_net_count_ = 0;
  saved_rows_.clear();
  txn_dirty_nets_.clear();
  seeds_.clear();
  in_txn_ = false;
}

void Sta::append_txn_changed_ids(std::vector<GateId>& arrival_ids,
                                 std::vector<GateId>& net_ids) const {
  RAPIDS_ASSERT_MSG(in_txn_, "txn-changed ids only exist inside a transaction");
  for (const auto& [g, a] : saved_arrivals_) {
    (void)a;
    arrival_ids.push_back(g);
  }
  for (std::size_t i = 0; i < saved_net_count_; ++i) {
    net_ids.push_back(saved_nets_[i].first);
  }
}

std::size_t Sta::adopt_delta(const Sta& other, std::span<const GateId> arrival_ids,
                             std::span<const GateId> net_ids,
                             std::span<const GateId> gate_ids) {
  RAPIDS_ASSERT_MSG(!in_txn_ && !other.in_txn_,
                    "adopt_delta requires both analyses outside transactions");
  RAPIDS_ASSERT_MSG(pin_stride_ == other.pin_stride_,
                    "pin stride drifted; replica needs a full sync");
  // Size the id-indexed arrays to MATCH the source's exactly, not the net
  // bound: the live Sta grows lazily inside transactions, so tombstones
  // minted by the post-commit id top-up are not yet in its arrays — and
  // the clone path (copy_state_from) replicates that exact layout. The
  // arrays only ever grow, so this never truncates. New slots default to
  // the same values the live grow() wrote; every slot whose value then
  // changed is in the journal's id lists and copied below.
  const std::size_t n = other.arrival_.size();
  resize_slots(n);
  std::size_t bytes = 0;
  // The caller ships arrival ids sorted and deduplicated (the delta-sync
  // dedup pass); commits touch contiguous cone slices, so compact the list
  // into maximal consecutive runs and move each with one bulk copy of the
  // arrival and stamp rows instead of a per-id scatter.
  for (std::size_t i = 0; i < arrival_ids.size();) {
    std::size_t j = i + 1;
    while (j < arrival_ids.size() && arrival_ids[j] == arrival_ids[j - 1] + 1) ++j;
    const GateId first = arrival_ids[i];
    const std::size_t run = j - i;
    std::copy_n(other.arrival_.begin() + first, run, arrival_.begin() + first);
    std::copy_n(other.arrival_stamp_.begin() + first, run,
                arrival_stamp_.begin() + first);
    bytes += run * (sizeof(RiseFall) + sizeof(std::uint64_t));
    i = j;
  }
  for (const GateId d : net_ids) {
    nets_[d] = other.nets_[d];
    rows_[d] = other.rows_[d];
    for (const StarBranch& b : nets_[d].branches) {
      pin_delay_[b.pin.gate * pin_stride_ + b.pin.index] = b.wire_delay;
    }
    bytes += sizeof(StarNet) + nets_[d].branches.size() * sizeof(StarBranch) +
             sizeof(TimingRow);
  }
  // Structural ids include tombstones the source's arrays have not grown
  // to cover yet; their rows are default on both sides.
  for (const GateId g : gate_ids) {
    if (g >= n) continue;
    rows_[g] = other.rows_[g];
    bytes += sizeof(TimingRow);
  }
  critical_delay_ = other.critical_delay_;
  sum_po_ = other.sum_po_;
  required_time_ = other.required_time_;
  timing_epoch_ = other.timing_epoch_;
  state_version_ = other.state_version_;
  required_valid_ = false;
  margins_valid_ = false;
  return bytes;
}

void Sta::refresh_required() {
  required_.assign(net_.id_bound(), RiseFall{kInf, kInf});
  const std::vector<GateId> order = reverse_topological_order(net_);
  for (const GateId po : net_.primary_outputs()) {
    required_[po] = RiseFall{required_time_, required_time_};
  }
  for (const GateId g : order) {
    if (rows_[g].arc == ArcKind::Output) {
      // Push through the wire onto the driver below (handled at driver).
      continue;
    }
    // required at g's output = min over sink pins of
    //   (required at sink output - sink arc delay - wire delay to the pin).
    RiseFall req = required_[g];  // POs already seeded; others start at +inf
    for (const Pin& pin : net_.fanouts(g)) {
      const GateId h = pin.gate;
      const double wire = pin_delay_[pin.gate * pin_stride_ + pin.index];
      RiseFall through{kInf, kInf};
      if (rows_[h].arc == ArcKind::Output) {
        through = required_[h];
      } else {
        accumulate_arc_required(arc_sense_of(rows_[h].arc), required_[h],
                                rows_[h].delay, through);
      }
      req.rise = std::min(req.rise, through.rise - wire);
      req.fall = std::min(req.fall, through.fall - wire);
    }
    required_[g] = req;
  }
  required_valid_ = true;
}

void Sta::refresh_damping_margins() {
  RAPIDS_ASSERT_MSG(!in_txn_, "margin refresh requires a committed fixed point");
  compute_levels(topological_order(net_));
  // PO-seeded ceiling: the same backward recurrence as refresh_required,
  // but each primary output anchors at its OWN current arrival, so
  //   req_damp(g) = min over g→PO paths of (arrival(PO) − path delay).
  // The ceiling depends only on path delays and PO arrivals — an increase
  // kept under it cannot change any PO's max, hence neither objective term.
  // The guard absorbs the rounding skew between this backward recurrence
  // (subtractions) and forward propagation (additions): without it, a
  // suppressed increase sitting exactly at the ceiling can land an ulp
  // above the stored PO arrival when replayed forward. 1e-6 ns dwarfs any
  // accumulated double rounding error (~1e-10 over the deepest paths)
  // while staying far below real slack margins, and --timing-damp-diff
  // bit-checks the resulting exactness on every damped propagation.
  //
  // The same walk records reach(g), the longest path delay from g's output
  // to any primary output per transition (outputs anchor at 0): the
  // bounded-probe cut-off's lower bound on what an arrival at g adds.
  constexpr double kDampGuard = 1e-6;
  req_damp_.assign(arrival_.size(), RiseFall{kInf, kInf});
  reach_.assign(arrival_.size(), RiseFall{-kInf, -kInf});
  for (const GateId po : net_.primary_outputs()) {
    req_damp_[po] = RiseFall{arrival_[po].rise - kDampGuard,
                             arrival_[po].fall - kDampGuard};
    reach_[po] = RiseFall{0.0, 0.0};
  }
  for (const GateId g : reverse_topological_order(net_)) {
    if (rows_[g].arc == ArcKind::Output) continue;
    RiseFall req = req_damp_[g];
    RiseFall reach = reach_[g];
    for (const Pin& pin : net_.fanouts(g)) {
      const GateId h = pin.gate;
      const double wire = pin_delay_[pin.gate * pin_stride_ + pin.index];
      RiseFall through{kInf, kInf};
      RiseFall reach_in = reach_[h];
      if (rows_[h].arc == ArcKind::Output) {
        through = req_damp_[h];
      } else {
        accumulate_arc_required(arc_sense_of(rows_[h].arc), req_damp_[h],
                                rows_[h].delay, through);
        reach_in = reach_through(rows_[h].arc, rows_[h].delay, reach_[h]);
      }
      req.rise = std::min(req.rise, through.rise - wire);
      req.fall = std::min(req.fall, through.fall - wire);
      reach.rise = std::max(reach.rise, reach_in.rise + wire);
      reach.fall = std::max(reach.fall, reach_in.fall + wire);
    }
    req_damp_[g] = req;
    reach_[g] = reach;
  }
  margins_valid_ = true;
  ++margin_refreshes_;
}

}  // namespace rapids
