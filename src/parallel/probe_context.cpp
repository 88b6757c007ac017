#include "parallel/probe_context.hpp"

#include <algorithm>

#include "trace/trace.hpp"
#include "util/timer.hpp"

namespace rapids {

ProbeContext::ProbeContext(const CellLibrary& lib, std::uint64_t base_seed, int worker)
    : lib_(lib), rng_(Rng::substream(base_seed, static_cast<std::uint64_t>(worker))) {}

ProbeContext::~ProbeContext() = default;

void ProbeContext::set_tracer(Tracer* tracer) {
  tracer_ = tracer;
  if (engine_) engine_->set_tracer(tracer);
}

bool ProbeContext::in_sync_with(RewireEngine& source) const {
  return has_state_ && epoch_ == source.epoch() &&
         sta_version_ == source.sta().state_version();
}

void ProbeContext::sync(RewireEngine& source) {
  const Timer timer;
  TraceSpan sync_span(tracer_, "sync", "replica_sync");
  ++sync_stats_.syncs;

  // Delta path: replay the source journal's committed rounds instead of
  // re-cloning the network — valid only while this replica still holds a
  // journal-covered epoch AND the source Sta was not rebuilt wholesale
  // (run_full changes the pin stride / id-space layout the delta assumes).
  if (delta_sync_ && has_state_ && engine_ &&
      source.sta().state_version() == sta_version_ &&
      source.sync_delta_available(epoch_)) {
    if (epoch_ != source.epoch()) {
      delta_gates_.clear();
      delta_arr_.clear();
      delta_nets_.clear();
      source.collect_sync_delta(epoch_, delta_gates_, delta_arr_, delta_nets_);
      // The journal concatenates per-commit slices, and commits inside one
      // round overlap heavily (critical-path arrivals are recomputed by
      // nearly every commit). Adoption copies the source's CURRENT state,
      // so each id needs shipping once — dedup before paying for the rows.
      if (dedup_stamp_.size() < source.net().id_bound()) {
        dedup_stamp_.resize(source.net().id_bound(), 0);
      }
      dedup_sorted(delta_gates_);
      dedup_sorted(delta_arr_);
      dedup_sorted(delta_nets_);
      std::size_t bytes = net_.adopt_structural_delta(source.net(), delta_gates_);
      // Placement rows of the touched gates (committed swaps place the
      // inverters they insert); ids minted since the snapshot are unplaced
      // tombstones on both sides.
      pl_.resize(net_.id_bound());
      for (const GateId g : delta_gates_) {
        if (source.placement().is_placed(g)) {
          pl_.set(g, source.placement().at(g));
        } else {
          pl_.unset(g);
        }
      }
      bytes += sta_->adopt_delta(source.sta(), delta_arr_, delta_nets_, delta_gates_);
      sync_stats_.bytes_delta += bytes;
      // One epoch per commit: the span is the per-commit denominator for
      // the O(dirty) gauge in bench/scale_flow.
      sync_stats_.delta_commits += source.epoch() - epoch_;
      epoch_ = source.epoch();
      // Count only epoch-advancing replays: a same-epoch repeat call does no
      // work and must not inflate the sync counters (metrics-json promises
      // delta_syncs == journal replays, delta_commits == epochs spanned).
      ++sync_stats_.delta_syncs;
    }
    sync_span.set_arg("delta", 1);
    sync_stats_.seconds += timer.seconds();
    return;
  }

  // Full path. Tear down in dependency order: the engine holds references
  // into the replica network/placement/STA being replaced.
  engine_.reset();
  sta_.reset();

  // clone() preserves ids, tombstones AND the recycled-id free list, so the
  // replica's inverter-id allocation replays the live engine's exactly —
  // required for bit-identical probe arithmetic (star-net branch order is
  // keyed by gate id).
  net_ = source.net().clone();
  pl_ = source.placement();

  sta_ = std::make_unique<Sta>(net_, lib_, pl_, StaOptions{}, Sta::DeferInit{});
  sta_->copy_state_from(source.sta());
  engine_ = std::make_unique<RewireEngine>(net_, pl_, lib_, *sta_);
  engine_->set_tracer(tracer_);
  // Replicas inherit the paranoid configuration: each worker owns a
  // PRIVATE prover (per-worker proof sessions — solvers are not
  // thread-safe and must never be shared), so any replica-side commit
  // path is held to the same proof discipline as the live engine. The
  // scheduler harvests the per-worker proof counters after each round.
  engine_->set_paranoid(source.paranoid(), source.paranoid_options());
  // Damping configuration rides along too (margins themselves are NOT
  // synced — they are a per-Sta accelerator, refreshed replica-side at
  // round granularity; damped and undamped probes return identical
  // objectives by construction).
  engine_->set_timing_damp(source.timing_damp());
  engine_->set_timing_damp_diff(source.sta().damp_diff());

  epoch_ = source.epoch();
  sta_version_ = source.sta().state_version();
  has_state_ = true;
  harvested_ = EngineStats{};
  ++sync_stats_.full_syncs;
  sync_span.set_arg("delta", 0);
  // Rough but stable size model of what the clone path moves: the SoA gate
  // rows + adjacency pools + the id-indexed STA arrays (the full path is
  // O(network) regardless, so the edge count walk costs nothing extra).
  std::size_t edges = 0;
  net_.for_each_gate([&](GateId g) { edges += net_.fanin_count(g); });
  sync_stats_.bytes_full +=
      net_.id_bound() * (sizeof(GateType) + sizeof(std::int32_t) + 1 +
                         2 * sizeof(ChunkRef) + sizeof(RiseFall) * 2 +
                         sizeof(StarNet)) +
      edges * (sizeof(GateId) + sizeof(Pin));
  sync_stats_.seconds += timer.seconds();
}

void ProbeContext::dedup_sorted(std::vector<GateId>& ids) {
  // Stamp pass first, sort after: the concatenated journal repeats most
  // ids many times over, so sorting only the survivors is far cheaper
  // than sort+unique over the whole list — and yields the same list.
  if (++dedup_gen_ == 0) {
    std::fill(dedup_stamp_.begin(), dedup_stamp_.end(), 0);
    dedup_gen_ = 1;
  }
  std::size_t kept = 0;
  for (const GateId g : ids) {
    if (dedup_stamp_[g] == dedup_gen_) continue;
    dedup_stamp_[g] = dedup_gen_;
    ids[kept++] = g;
  }
  ids.resize(kept);
  std::sort(ids.begin(), ids.end());
}

}  // namespace rapids
