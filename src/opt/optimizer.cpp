#include "opt/optimizer.hpp"

#include <algorithm>
#include <optional>
#include <span>
#include <vector>

#include "engine/rewire_engine.hpp"
#include "opt/swap_move_cache.hpp"
#include "parallel/scheduler.hpp"
#include "rewire/swap.hpp"
#include "session/session.hpp"
#include "sizing/sizing.hpp"
#include "sym/gisg.hpp"
#include "sym/symmetry.hpp"
#include "trace/trace.hpp"
#include "util/log.hpp"
#include "util/timer.hpp"

namespace rapids {

const char* to_string(OptMode mode) {
  switch (mode) {
    case OptMode::Gsg:
      return "gsg";
    case OptMode::GateSizing:
      return "GS";
    case OptMode::GsgPlusGS:
      return "gsg+GS";
  }
  return "?";
}

namespace {

SchedulerOptions scheduler_options(const OptimizerOptions& o) {
  SchedulerOptions s;
  s.threads = std::max(o.threads, 1);
  s.cone_depth = 2;
  s.seed = o.seed;
  s.delta_sync = o.delta_replica_sync;
  s.timing_damp = o.timing_damp;
  return s;
}

/// A ProbeGroup is the unit that gets one committed move per phase: a
/// supergate (rewiring) or a single gate (sizing). All probe/commit
/// choreography lives in the scheduler + engine; this class only decides
/// WHICH moves to try.
class Optimizer {
 public:
  Optimizer(Network& net, Placement& pl, const CellLibrary& lib, Sta& sta,
            SessionContext& session, const OptimizerOptions& options)
      : net_(net), lib_(lib), sta_(sta), tracer_(session.tracer()),
        engine_(net, pl, lib, sta),
        scheduler_(engine_, session, scheduler_options(options)), options_(options),
        swap_cache_(net, sta, options) {
    // The live engine records into the run's session (replica engines are
    // wired by the scheduler's probe contexts).
    engine_.set_tracer(&tracer_);
    // Verify-every-commit: each committed move is SAT-proved on its window
    // before it sticks, for every commit path (incl. parallel arbitration).
    ParanoidOptions popt;
    popt.session = options.sat_session;
    engine_.set_paranoid(options.paranoid, popt);
    engine_.set_incremental_extraction(options.incremental_extraction);
    engine_.set_extract_diff(options.extract_diff);
    // Damp-diff rides on the Sta (the engine forwards it); replicas inherit
    // it through the probe contexts' full-sync path.
    engine_.set_timing_damp_diff(options.timing_damp_diff);
  }

  OptimizerResult run() {
    Timer timer;
    OptimizerResult result;
    {
      TraceSpan setup_span(tracer_, "opt", "setup");
      if (!options_.sta_is_fresh) sta_.run_full();
      result.initial_delay = sta_.critical_delay();
      result.initial_area = network_area(net_, lib_);
      result.threads = scheduler_.threads();

      // Table 1 statistics from the initial extraction.
      const GisgPartition& part = engine_.partition();
      result.coverage = part.nontrivial_coverage(net_);
      result.max_sg_inputs = part.max_leaves();
      result.redundancies_found = part.redundancies.size();
    }
    // Snapshot the canonicalize counters AFTER the initial extraction's
    // one O(network) pass, so the reported numbers isolate the steady
    // per-commit cost the dirty tracking is supposed to bound.
    canon_calls_base_ = net_.canonicalize_calls();
    canon_gates_base_ = net_.gates_canonicalized();
    seconds_setup_ = timer.seconds();

    double best = result.initial_delay;
    for (int iter = 0; iter < options_.max_iterations; ++iter) {
      ++result.iterations;
      TraceSpan iter_span(tracer_, "opt", "iteration");
      iter_span.set_arg("iter", iter);
      // Groups are refreshed per phase: a committed swap restructures its
      // supergate (inverter insertion, subtree exchange), which bumps that
      // slot's generation — only THOSE groups re-derive their candidate
      // pin sets. Clean supergates keep their cached swap groups across
      // phases and iterations (per-slot generation discipline).
      const int committed_a = scheduler_.run_round(
          build_groups(), ProbePolicy::MinCritical, options_.min_gain);
      const int committed_b = scheduler_.run_round(
          build_groups(), ProbePolicy::Relaxation, options_.min_gain);
      const double now = sta_.critical_delay();
      log_info() << to_string(options_.mode) << " iter " << iter << ": delay " << now
                 << " ns (" << committed_a << " + " << committed_b << " moves)";
      if (best - now < options_.min_gain && committed_a + committed_b == 0) break;
      if (now < best) best = now;
    }

    // Area recovery (sizing modes): downsize gates wherever the critical
    // delay is unaffected. This is what makes the paper's GS / gsg+GS area
    // columns go negative — off-critical gates give back their slack.
    if (options_.mode != OptMode::Gsg) {
      phase_area_recovery();
    }

    {
      const Timer finalize_timer;
      TraceSpan fin_span(tracer_, "opt", "finalize");
      if (options_.mode != OptMode::GateSizing) {
        // Only drop fanout-less inverters: their removal strictly reduces
        // driver loads. Inverter-pair collapse would re-time paths that were
        // evaluated with the pair in place and can lose committed gains.
        result.inverters_removed = static_cast<int>(remove_dangling_inverters(net_));
        // Gate deletion happens OUTSIDE the engine's commit stream, which is
        // exactly what incremental maintenance cannot model: force the
        // full-rebuild escape hatch (also wipes the proof-session cache).
        if (result.inverters_removed > 0) engine_.invalidate_partition();
      }
      sta_.run_full();
      sta_.refresh_required();
      result.final_delay = sta_.critical_delay();
      result.final_area = network_area(net_, lib_);
      seconds_finalize_ = finalize_timer.seconds();
    }
    result.seconds = timer.seconds();

    const EngineStats& stats = engine_.stats();
    result.swaps_committed = stats.swaps_committed + stats.cross_sg_committed;
    result.resizes_committed = stats.resizes_committed;
    result.inverters_added = stats.inverters_added;
    if (engine_.paranoid()) {
      result.moves_proved =
          engine_.paranoid_moves_checked() - engine_.paranoid_inconclusive();
      result.paranoid_inconclusive = engine_.paranoid_inconclusive();
      result.paranoid_verdicts.reserve(engine_.paranoid_verdicts().size());
      for (const ProofVerdict v : engine_.paranoid_verdicts()) {
        result.paranoid_verdicts.push_back(static_cast<std::uint8_t>(v));
      }
    }
    export_metrics(result);
    return result;
  }

 private:
  /// The one place the run's metrics are collected: each stat struct
  /// exports its own field list, and the values below are the few that are
  /// derived or owned by the optimizer.
  void export_metrics(OptimizerResult& result) const {
    MetricsRegistry& m = result.metrics;
    const SchedulerStats& sched = scheduler_.stats();
    engine_.stats().export_to(m);
    sched.export_to(m);
    sched.sync.export_to(m);
    PartitionStats partition = engine_.partition_stats();
    partition.groups_reused = swap_cache_.lists_reused();
    partition.export_to(m);
    proof_stats().export_to(m);

    const auto count = [&m](const char* name, auto value) {
      m.add_counter(name, static_cast<std::uint64_t>(value));
    };
    count("engine.swaps_committed", result.swaps_committed);
    count("engine.inverters_removed", result.inverters_removed);
    count("engine.iterations", result.iterations);
    count("engine.redundancies_found", result.redundancies_found);
    count("engine.canonicalize_calls", net_.canonicalize_calls() - canon_calls_base_);
    count("engine.gates_canonicalized", net_.gates_canonicalized() - canon_gates_base_);
    count("engine.candidates_enumerated", swap_cache_.candidates_enumerated());
    count("engine.pruned_groups_cached", swap_cache_.pruned_hits());
    count("scheduler.committed", result.swaps_committed + result.resizes_committed);
    count("proof.moves_proved", result.moves_proved);
    count("proof.inconclusive", result.paranoid_inconclusive);
    const sat::ProofSession* session = engine_.proof_session();
    const sat::SolverStats solver = session ? session->solver_stats() : sat::SolverStats{};
    count("solver.learned_kept", session ? session->solver_learned_clauses() : 0);
    count("solver.learned_deleted", solver.learned_deleted);
    count("solver.reduce_dbs", solver.reduce_dbs);

    m.set_gauge("delay.initial_ns", result.initial_delay);
    m.set_gauge("delay.final_ns", result.final_delay);
    m.set_gauge("delay.improvement_pct", result.improvement_percent());
    m.set_gauge("area.initial", result.initial_area);
    m.set_gauge("area.final", result.final_area);
    m.set_gauge("area.delta_pct", result.area_delta_percent());
    m.set_gauge("sg.coverage", result.coverage);
    m.set_gauge("sg.max_inputs", static_cast<double>(result.max_sg_inputs));
    m.set_gauge("run.threads", static_cast<double>(result.threads));

    // Phase wall clock. Everything except sync and margins (subsets of
    // probe) sums to time.optimize_s. Whatever is left is loop overhead —
    // warn when it stops being noise, because an unattributed phase is
    // exactly what this breakdown exists to prevent. Noise means under 5%
    // or under 1 ms: a sub-millisecond optimize is all fixed overhead.
    const double attributed = seconds_setup_ + seconds_groups_ + sched.seconds_probe +
                              sched.seconds_arbitrate + sched.seconds_commit +
                              seconds_finalize_;
    const double unattributed = std::max(0.0, result.seconds - attributed);
    if (unattributed > 0.05 * result.seconds && unattributed > 1e-3) {
      log_warn() << "phase accounting: " << unattributed << " s of " << result.seconds
                 << " s optimize time unattributed (> 5%) — a phase is "
                    "missing a timer";
    }
    m.set_gauge("time.optimize_s", result.seconds);
    m.set_gauge("time.setup_s", seconds_setup_);
    m.set_gauge("time.groups_s", seconds_groups_);
    m.set_gauge("time.finalize_s", seconds_finalize_);
    m.set_gauge("time.unattributed_s", unattributed);
    if (result.seconds > 0.0) {
      m.set_gauge("rate.probes_per_sec",
                  static_cast<double>(engine_.stats().probes) / result.seconds);
    }

    m.add_histogram("hist.probe_gain_ns", sched.gain_hist);
    m.add_histogram("hist.proof_conflicts", engine_.proof_conflict_hist());
  }

  /// Counters of whichever paranoid prover ran (all zero when none did).
  sat::ProofSessionStats proof_stats() const {
    if (const sat::ProofSessionStats* session = engine_.session_stats()) return *session;
    sat::ProofSessionStats proofs;
    if (const sat::WindowCheckerStats* window = engine_.paranoid_stats()) {
      proofs.moves_checked = window->moves_checked;
      proofs.roots_proved_structurally = window->roots_proved_structurally;
      proofs.roots_proved_by_sat = window->roots_proved_by_sat;
      proofs.conflicts = window->conflicts;
      proofs.gates_encoded = window->window_gates;
    }
    return proofs;
  }

  // --- group construction ---------------------------------------------------

  /// Rebuild this phase's groups: one view per non-empty swap list (into
  /// the swap cache, which owns the lists) and one per resize candidate
  /// list (into resize_pool_). Every view of the previous phase dies here.
  std::span<const ProbeGroup> build_groups() {
    const Timer groups_timer;
    TraceSpan groups_span(tracer_, "opt", "build_groups");
    reset_groups();
    const bool want_swaps = options_.mode != OptMode::GateSizing;
    const bool want_resizes = options_.mode != OptMode::Gsg;

    // Reused id_bound-sized scratch (satellite: no per-phase reallocation).
    covered_nontrivial_.assign(net_.id_bound(), 0);
    if (want_swaps) {
      // All optimizer mutations go through engine commits, which dirty
      // exactly the supergates they restructure; partition() splices those
      // regions in and leaves every other slot's generation untouched.
      const GisgPartition& part = engine_.partition();
      // Canonical group order: by supergate ROOT id, not slot index. Slot
      // numbering is maintenance-history-dependent (recycled slots), and
      // the arbiter breaks exact gain ties by group index — root order
      // makes the committed move stream a function of partition CONTENT,
      // so incremental and full-rebuild maintenance produce byte-identical
      // netlists.
      slot_order_.clear();
      for (std::size_t s = 0; s < part.sgs.size(); ++s) {
        if (!part.sgs[s].is_trivial()) slot_order_.push_back(s);
      }
      std::sort(slot_order_.begin(), slot_order_.end(),
                [&part](std::size_t a, std::size_t b) {
                  return part.sgs[a].root < part.sgs[b].root;
                });
      for (const std::size_t s : slot_order_) {
        for (const GateId g : part.sgs[s].covered) covered_nontrivial_[g] = 1;
        const ProbeGroup moves = swap_cache_.serve(part, s);
        if (!moves.empty()) groups_.push_back(moves);
      }
    }
    if (want_resizes) {
      for (const GateId g : net_.gates()) {
        if (!is_logic(net_.type(g)) || net_.cell(g) < 0) continue;
        // gsg+GS sizes only gates NOT covered by a non-trivial supergate.
        if (options_.mode == OptMode::GsgPlusGS && covered_nontrivial_[g]) continue;
        for (const int cell : resize_candidates(net_, lib_, g)) {
          resize_pool_.push_back(EngineMove::resize(g, cell));
        }
        close_resize_group();
      }
      append_resize_groups();
    }
    groups_span.set_arg("groups", static_cast<std::int64_t>(groups_.size()));
    seconds_groups_ += groups_timer.seconds();
    return groups_;
  }

  void reset_groups() {
    groups_.clear();
    resize_pool_.clear();
    resize_ends_.clear();
  }

  /// End the resize group being appended to resize_pool_ (dropped when it
  /// stayed empty).
  void close_resize_group() {
    const std::size_t begin = resize_ends_.empty() ? 0 : resize_ends_.back();
    if (resize_pool_.size() > begin) resize_ends_.push_back(resize_pool_.size());
  }

  /// View every closed resize group, once resize_pool_ no longer grows.
  void append_resize_groups() {
    std::size_t begin = 0;
    for (const std::size_t end : resize_ends_) {
      groups_.push_back(ProbeGroup(resize_pool_).subspan(begin, end - begin));
      begin = end;
    }
  }

  // --- phases ---------------------------------------------------------------

  /// Area recovery: one FirstFit round per the fixed budget — each gate's
  /// group lists its strictly smaller cells, area-ascending; the smallest
  /// that keeps the critical delay within budget wins, and the arbiter
  /// re-validates each against the live state in gate order.
  void phase_area_recovery() {
    TraceSpan phase_span(tracer_, "opt", "area_recovery");
    const Timer groups_timer;
    reset_groups();
    covered_nontrivial_.assign(net_.id_bound(), 0);
    if (options_.mode == OptMode::GsgPlusGS) {
      const GisgPartition& part = engine_.partition();
      for (const SuperGate& sg : part.sgs) {
        if (sg.is_trivial()) continue;
        for (const GateId g : sg.covered) covered_nontrivial_[g] = 1;
      }
    }
    const double budget = sta_.critical_delay() + options_.min_gain;
    for (const GateId g : net_.gates()) {
      if (!is_logic(net_.type(g)) || net_.cell(g) < 0) continue;
      if (options_.mode == OptMode::GsgPlusGS && g < covered_nontrivial_.size() &&
          covered_nontrivial_[g]) {
        continue;
      }
      const Cell& current = lib_.cell(net_.cell(g));
      std::vector<int> cands = resize_candidates(net_, lib_, g);
      std::sort(cands.begin(), cands.end(), [this](int a, int b) {
        return lib_.cell(a).area < lib_.cell(b).area;
      });
      for (const int cand : cands) {
        if (lib_.cell(cand).area >= current.area) break;
        resize_pool_.push_back(EngineMove::resize(g, cand));
      }
      close_resize_group();
    }
    append_resize_groups();
    seconds_groups_ += groups_timer.seconds();
    scheduler_.run_round(groups_, ProbePolicy::FirstFit, budget);
  }

  Network& net_;
  const CellLibrary& lib_;
  Sta& sta_;
  Tracer& tracer_;  // the run's session tracer
  RewireEngine engine_;
  ParallelRewireScheduler scheduler_;
  OptimizerOptions options_;

  SwapMoveCache swap_cache_;  // the one owner of swap lists
  double seconds_setup_ = 0.0;
  double seconds_groups_ = 0.0;
  double seconds_finalize_ = 0.0;
  std::uint64_t canon_calls_base_ = 0;
  std::uint64_t canon_gates_base_ = 0;
  std::vector<std::size_t> slot_order_;  // root-sorted live slots (reused)

  // Held-capacity pools, rebuilt each phase: the group views, the resize
  // moves they view (with each group's end offset), and the id_bound-sized
  // coverage scratch.
  std::vector<ProbeGroup> groups_;
  std::vector<EngineMove> resize_pool_;
  std::vector<std::size_t> resize_ends_;
  std::vector<std::uint8_t> covered_nontrivial_;
};

}  // namespace

OptimizerResult optimize(Network& net, Placement& placement, const CellLibrary& lib,
                         Sta& sta, const OptimizerOptions& options) {
  // Public entry point: a session-less call runs on a call-local session.
  std::optional<SessionContext> local;
  SessionContext& session =
      options.session != nullptr ? *options.session : local.emplace("default");
  Optimizer optimizer(net, placement, lib, sta, session, options);
  return optimizer.run();
}

}  // namespace rapids
