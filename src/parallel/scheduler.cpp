#include "parallel/scheduler.hpp"

#include <algorithm>
#include <cmath>

#include "session/session.hpp"
#include "trace/provenance.hpp"
#include "trace/trace.hpp"
#include "util/assert.hpp"
#include "util/timer.hpp"

namespace rapids {

namespace {
// Matches the optimizer's historical tie window: gains closer than this are
// "equal" and the sum-of-arrivals objective breaks the tie.
constexpr double kGainTie = 1e-12;
// Tolerance for "does not degrade the critical delay" (phase B).
constexpr double kCritSlack = 1e-9;
}  // namespace

ParallelRewireScheduler::ParallelRewireScheduler(RewireEngine& engine,
                                                SessionContext& session,
                                                const SchedulerOptions& options)
    : engine_(engine), options_(options), session_(session),
      // The session's persistent pool stays warm across its flows.
      pool_(session.acquire_pool(options.threads)),
      probe_stats_(pool_.workers()) {
  options_.threads = pool_.workers();
  // The damping lever lives on the engines: the live one here, replicas
  // inherit it at sync time.
  engine_.set_timing_damp(options_.timing_damp);
  contexts_.reserve(static_cast<std::size_t>(pool_.workers()));
  for (int w = 0; w < pool_.workers(); ++w) {
    contexts_.push_back(
        std::make_unique<ProbeContext>(engine.lib(), options_.seed, w));
    contexts_.back()->set_delta_sync(options_.delta_sync);
    contexts_.back()->set_tracer(&session_.tracer());
  }
}

GroupResult ParallelRewireScheduler::probe_group(RewireEngine& eng,
                                                 ProbeScratch& scratch,
                                                 int group_index,
                                                 ProbeGroup group,
                                                 ProbePolicy policy, double threshold,
                                                 double base_critical,
                                                 double base_sum) const {
  GroupResult r;
  r.group = group_index;

  // Each policy's rejection line for the probed critical delay: a probe
  // proved to end above it stops early and comes back `pruned`, and no
  // condition below could have taken it.
  switch (policy) {
    case ProbePolicy::MinCritical: {
      const double bound = threshold >= 0.0 ? base_critical : Sta::kNoBound;
      double best_gain = 0.0;
      double best_sum_gain = 0.0;
      for (std::size_t i = 0; i < group.size(); ++i) {
        const EngineMove& move = group[i];
        const EngineObjective obj =
            eng.probe_with(scratch, move, critical_mask_, bound);
        ++r.probes;
        // A pruned move's gain is <= 0 (Sta::seeds_avoid) or < 0 (the
        // bound), and both are only armed for threshold >= 0: neither
        // condition below can take it, so skipping it leaves the result
        // unchanged.
        if (obj.pruned) continue;
        const double gain = base_critical - obj.critical;
        const double sum_gain = base_sum - obj.sum_po;
        if (gain > best_gain + kGainTie ||
            (gain > threshold && std::abs(gain - best_gain) <= kGainTie &&
             sum_gain > best_sum_gain)) {
          r.move = move;
          r.move_index = static_cast<int>(i);
          r.has_move = true;
          best_gain = gain;
          best_sum_gain = sum_gain;
        }
      }
      if (best_gain <= threshold) r.has_move = false;
      r.crit_gain = best_gain;
      r.sum_gain = best_sum_gain;
      break;
    }
    case ProbePolicy::Relaxation: {
      const double bound = base_critical + kCritSlack;
      double best_sum_gain = threshold;
      for (std::size_t i = 0; i < group.size(); ++i) {
        const EngineMove& move = group[i];
        const EngineObjective obj = eng.probe_with(scratch, move, {}, bound);
        ++r.probes;
        if (obj.pruned || obj.critical > bound) continue;
        const double sum_gain = base_sum - obj.sum_po;
        if (sum_gain > best_sum_gain) {
          r.move = move;
          r.move_index = static_cast<int>(i);
          r.has_move = true;
          best_sum_gain = sum_gain;
          r.crit_gain = base_critical - obj.critical;
        }
      }
      r.sum_gain = r.has_move ? best_sum_gain : 0.0;
      break;
    }
    case ProbePolicy::FirstFit: {
      for (std::size_t i = 0; i < group.size(); ++i) {
        const EngineMove& move = group[i];
        const EngineObjective obj = eng.probe_with(scratch, move, {}, threshold);
        ++r.probes;
        if (!obj.pruned && obj.critical <= threshold) {
          r.move = move;
          r.move_index = static_cast<int>(i);
          r.has_move = true;
          r.crit_gain = base_critical - obj.critical;
          r.sum_gain = base_sum - obj.sum_po;
          break;
        }
      }
      break;
    }
  }
  return r;
}

std::vector<GroupResult> ParallelRewireScheduler::probe_round(
    std::span<const ProbeGroup> groups, ProbePolicy policy, double threshold) {
  std::vector<GroupResult> results(groups.size());
  if (groups.empty()) return results;
  const Timer round_timer;
  ++stats_.rounds;
  TraceSpan round_span(session_.tracer(), "probe", "probe_round");
  round_span.set_arg("groups", static_cast<std::int64_t>(groups.size()));

  // Refresh the live engine's damping margins at ROUND granularity (no-op
  // while they are still valid or damping is off): the serial fast path
  // probes the live engine, and arbitration's re-validation probes reuse
  // them until the round's first commit invalidates. seconds_timing is a
  // quoted subset of this round's probe time.
  {
    const Timer margin_timer;
    engine_.refresh_timing_margins();
    stats_.seconds_timing += margin_timer.seconds();
  }

  const double base_critical = engine_.sta().critical_delay();
  const double base_sum = engine_.sta().sum_po_arrival();
  const int workers = pool_.workers();

  // Critical-path pruning, MinCritical rounds with a non-negative threshold
  // only: a move whose seeds all miss the live critical path cannot gain
  // (Sta::seeds_avoid), so its probe skips propagation. Replicas mirror the
  // live state, so the one live mask serves every worker read-only.
  critical_mask_.clear();
  if (policy == ProbePolicy::MinCritical && threshold >= 0.0) {
    critical_mask_.assign(engine_.net().id_bound(), 0);
    for (const GateId g : engine_.sta().critical_path()) critical_mask_[g] = 1;
  }

  if (workers == 1) {
    // Single-worker fast path: probe the live engine directly — probes are
    // pure functions of state (ProbeContext.ReplicaProbesMatchLiveEngine
    // asserts replica and live probes are bit-identical), so this produces
    // the same results as a one-replica round without the clone/sync cost.
    // Conflict signatures exist only to shard and to count arbitration
    // conflicts, so they are skipped here too.
    std::uint64_t round_probes = 0;
    for (std::size_t g = 0; g < groups.size(); ++g) {
      results[g] = probe_group(engine_, serial_scratch_, static_cast<int>(g),
                               groups[g], policy, threshold, base_critical,
                               base_sum);
      round_probes += static_cast<std::uint64_t>(results[g].probes);
    }
    stats_.worker_probes += round_probes;
    probe_stats_.shard(0).add(static_cast<double>(round_probes));
    round_span.set_arg2("probes", static_cast<std::int64_t>(round_probes));
    stats_.seconds_probe += round_timer.seconds();
    return results;
  }

  std::vector<ConflictSignature> sigs(groups.size());
  for (std::size_t g = 0; g < groups.size(); ++g) {
    sigs[g] = group_signature(engine_.net(), groups[g], options_.cone_depth);
  }

  // Balance shards on probe WEIGHT (one replica probe per move), not group
  // count: group sizes are heavily skewed (a wide supergate's swap group
  // next to single-candidate resize groups), and count-balanced shards
  // were measured at 7x worker-probe spread on c1908.
  std::vector<std::uint64_t> weights(groups.size());
  for (std::size_t g = 0; g < groups.size(); ++g) {
    weights[g] = groups[g].size();
  }
  const std::vector<int> shard_of = assign_shards(sigs, weights, workers);
  std::vector<std::vector<int>> shard_groups(static_cast<std::size_t>(workers));
  for (std::size_t g = 0; g < groups.size(); ++g) {
    shard_groups[static_cast<std::size_t>(shard_of[g])].push_back(
        static_cast<int>(g));
  }

  // Per-worker margin-refresh seconds, summed after the barrier (workers
  // must not race on the shared stats struct).
  std::vector<double> margin_seconds(static_cast<std::size_t>(workers), 0.0);
  pool_.run([&](int w) {
    // Tag this pool thread with the session: its log tag and thread-local
    // worker id must be this round's even if the thread served another
    // session's round earlier (SessionScope saves/restores both).
    SessionScope session_scope(session_, w);
    const std::vector<int>& mine = shard_groups[static_cast<std::size_t>(w)];
    if (mine.empty()) {
      // A starved worker is exactly what the load-distribution metric
      // exists to expose — record the zero.
      probe_stats_.shard(w).add(0.0);
      return;
    }
    // One span per worker shard, landing on that worker's own trace ring.
    TraceSpan shard_span(session_.tracer(), "probe", "probe_shard");
    shard_span.set_arg("groups", static_cast<std::int64_t>(mine.size()));
    ProbeContext& ctx = *contexts_[static_cast<std::size_t>(w)];
    // in_sync_with, not synced_to: the epoch alone misses an out-of-band
    // run_full (journal restart) inside the same epoch — the replica would
    // keep pre-restart arrivals.
    if (!ctx.in_sync_with(engine_)) ctx.sync(engine_);
    {
      // Replica margins (stale after every sync — they are not shipped,
      // see ProbeContext::sync) refresh once per round per worker.
      const Timer margin_timer;
      ctx.engine().refresh_timing_margins();
      margin_seconds[static_cast<std::size_t>(w)] = margin_timer.seconds();
    }
    std::uint64_t my_probes = 0;
    for (const int g : mine) {
      GroupResult& r = results[static_cast<std::size_t>(g)];
      r = probe_group(ctx.engine(), ctx.scratch(), g,
                      groups[static_cast<std::size_t>(g)], policy, threshold,
                      base_critical, base_sum);
      r.sig = std::move(sigs[static_cast<std::size_t>(g)]);
      my_probes += static_cast<std::uint64_t>(r.probes);
    }
    // Worker-owned statistics shard: written here, merged after the
    // pool barrier.
    probe_stats_.shard(w).add(static_cast<double>(my_probes));
    shard_span.set_arg2("probes", static_cast<std::int64_t>(my_probes));
  });

  // Harvest replica probe counters into the live engine's lifetime totals
  // (workers are quiescent past the pool barrier). Proof-session counters
  // ride along: per-worker sessions merge into the live engine's view.
  stats_.worker_probes += harvest_worker_counters();
  for (const double s : margin_seconds) stats_.seconds_timing += s;
  stats_.seconds_probe += round_timer.seconds();
  return results;
}

std::uint64_t ParallelRewireScheduler::harvest_worker_counters() {
  std::uint64_t probes = 0;
  for (int w = 0; w < pool_.workers(); ++w) {
    ProbeContext& ctx = *contexts_[static_cast<std::size_t>(w)];
    const EngineStats window = ctx.take_stats();
    engine_.absorb_stats(window);
    engine_.absorb_session_stats(ctx.take_session_stats());
    stats_.sync += ctx.take_sync_stats();
    probes += window.probes;
  }
  return probes;
}

int ParallelRewireScheduler::arbitrate_and_commit(
    std::vector<GroupResult> results, ProbePolicy policy, double threshold,
    std::span<const ProbeGroup> groups) {
  const Timer arb_timer;
  double commit_seconds = 0.0;
  TraceSpan arb_span(session_.tracer(), "arbitrate", "arbitrate_round");
  // Keep only per-group winners.
  results.erase(std::remove_if(results.begin(), results.end(),
                               [](const GroupResult& r) { return !r.has_move; }),
                results.end());
  stats_.accepted += results.size();
  arb_span.set_arg("winners", static_cast<std::int64_t>(results.size()));

  // Canonical commit order: a strict total order over (gain, group index),
  // so the sequence of live commits is identical for every worker count.
  switch (policy) {
    case ProbePolicy::MinCritical:
      std::sort(results.begin(), results.end(),
                [](const GroupResult& a, const GroupResult& b) {
                  if (a.crit_gain != b.crit_gain) return a.crit_gain > b.crit_gain;
                  return a.group < b.group;
                });
      break;
    case ProbePolicy::Relaxation:
      std::sort(results.begin(), results.end(),
                [](const GroupResult& a, const GroupResult& b) {
                  if (a.sum_gain != b.sum_gain) return a.sum_gain > b.sum_gain;
                  return a.group < b.group;
                });
      break;
    case ProbePolicy::FirstFit:
      std::sort(results.begin(), results.end(),
                [](const GroupResult& a, const GroupResult& b) {
                  return a.group < b.group;
                });
      break;
  }

  int committed = 0;
  ConflictSignature committed_union;
  // Provenance records happen HERE and only here: this loop is serial and
  // consumes winners in the canonical order, so the event stream is
  // worker-count-independent. `stats_.rounds` is the round coordinate of
  // every id minted below. The stream belongs to the round's session.
  ProvenanceLog& prov = session_.provenance();
  const std::uint64_t round = stats_.rounds;
  for (const GroupResult& r : results) {
    const std::uint64_t win_id = make_move_id(round, r.group, r.move_index);
    prov.record(win_id, ProvenanceStage::ProbeWin,
                policy == ProbePolicy::Relaxation ? r.sum_gain : r.crit_gain);
    if (committed_union.overlaps(r.sig)) {
      ++stats_.conflicted;
      prov.record(win_id, ProvenanceStage::Conflicted);
    }

    // Re-validate against the LIVE state: earlier commits may have absorbed
    // or invalidated the replica-probed gain.
    ++stats_.arbiter_probes;
    bool take = false;
    double live_gain = 0.0;  // gain under the round's own objective
    switch (policy) {
      case ProbePolicy::MinCritical: {
        const double before = engine_.sta().critical_delay();
        const EngineObjective obj = engine_.probe(r.move);
        live_gain = before - obj.critical;
        take = live_gain > threshold;
        break;
      }
      case ProbePolicy::Relaxation: {
        const double before_crit = engine_.sta().critical_delay();
        const double before_sum = engine_.sta().sum_po_arrival();
        const EngineObjective obj = engine_.probe(r.move);
        live_gain = before_sum - obj.sum_po;
        take = obj.critical <= before_crit + kCritSlack &&
               live_gain > threshold;
        break;
      }
      case ProbePolicy::FirstFit: {
        const double before = engine_.sta().critical_delay();
        const EngineObjective obj = engine_.probe(r.move);
        live_gain = before - obj.critical;
        take = obj.critical <= threshold;
        break;
      }
    }
    EngineMove chosen = r.move;
    std::uint64_t chosen_id = win_id;
    if (!take && policy == ProbePolicy::FirstFit && r.group >= 0 &&
        static_cast<std::size_t>(r.group) < groups.size()) {
      // The replica-chosen candidate no longer fits the live state. Replay
      // the serial algorithm for this group: probe every candidate live,
      // in order, and take the first fit (an earlier candidate that failed
      // the round baseline can fit now — a prior commit may have unloaded
      // this gate). Groups where NO candidate fit the baseline never reach
      // arbitration; that pruning is the round's parallel win and the one
      // deliberate divergence from the serial scan.
      const ProbeGroup moves = groups[static_cast<std::size_t>(r.group)];
      for (std::size_t i = 0; i < moves.size(); ++i) {
        if (static_cast<int>(i) == r.move_index) continue;  // already probed
        ++stats_.arbiter_probes;
        const double before = engine_.sta().critical_delay();
        const EngineObjective obj = engine_.probe(moves[i]);
        if (obj.critical <= threshold) {
          chosen = moves[i];
          take = true;
          live_gain = before - obj.critical;
          chosen_id = make_move_id(round, r.group, static_cast<int>(i));
          prov.record(chosen_id, ProvenanceStage::FallbackChosen, live_gain);
          break;
        }
      }
    }
    if (take) {
      const Timer commit_timer;
      TraceSpan commit_span(session_.tracer(), "commit", "commit_move");
      commit_span.set_arg("group", r.group);
      const std::size_t verdicts_before = engine_.paranoid_verdicts().size();
      engine_.commit(chosen);
      commit_seconds += commit_timer.seconds();
      ++committed;
      ++stats_.committed;
      committed_union.merge(r.sig);
      if (policy != ProbePolicy::FirstFit) stats_.gain_hist.add(live_gain);
      prov.record(chosen_id, ProvenanceStage::Committed, live_gain);
      // Paranoid mode appends one verdict per proved Swap commit;
      // thread it onto the move's chain (resize commits append none).
      const std::vector<ProofVerdict>& verdicts = engine_.paranoid_verdicts();
      for (std::size_t v = verdicts_before; v < verdicts.size(); ++v) {
        switch (verdicts[v]) {
          case ProofVerdict::WindowProved:
            prov.record(chosen_id, ProvenanceStage::ProofWindowProved);
            break;
          case ProofVerdict::EscalatedProved:
            prov.record(chosen_id, ProvenanceStage::ProofEscalatedProved);
            break;
          case ProofVerdict::Inconclusive:
            prov.record(chosen_id, ProvenanceStage::ProofInconclusive);
            break;
        }
      }
    } else {
      ++stats_.revalidation_rejects;
      prov.record(win_id, ProvenanceStage::RevalidationReject, live_gain);
    }
  }
  arb_span.set_arg2("committed", committed);
  stats_.seconds_commit += commit_seconds;
  stats_.seconds_arbitrate += arb_timer.seconds() - commit_seconds;
  return committed;
}

int ParallelRewireScheduler::run_round(std::span<const ProbeGroup> groups,
                                       ProbePolicy policy, double threshold) {
  std::vector<GroupResult> results = probe_round(groups, policy, threshold);
  return arbitrate_and_commit(std::move(results), policy, threshold, groups);
}

}  // namespace rapids
