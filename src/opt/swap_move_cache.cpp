#include "opt/swap_move_cache.hpp"

#include <algorithm>
#include <cmath>

#include "sym/symmetry.hpp"

namespace rapids {

std::span<const EngineMove> SwapMoveCache::serve(const GisgPartition& part,
                                                 std::size_t slot) {
  if (entries_.size() < part.sgs.size()) entries_.resize(part.sgs.size());
  const SuperGate& sg = part.sgs[slot];
  Entry& entry = entries_[slot];
  const bool gen_clean = entry.generation != 0 && entry.generation == sg.generation;
  const bool cache_ok = gen_clean && (!entry.pruned || (options_.prune_cache &&
                                                        pruned_cache_valid(sg, entry)));
  if (cache_ok) {
    if (entry.pruned) ++pruned_hits_;
    // A cached EMPTY list never becomes a group, so it is not counted reused.
    if (!entry.moves.empty()) ++lists_reused_;
    return entry.moves;
  }
  const std::size_t found = enumerate(part, slot, entry.moves);
  candidates_enumerated_ += found;
  entry.pruned = static_cast<int>(found) > options_.max_swaps_per_sg;
  entry.generation = sg.generation;
  entry.timing_epoch = sta_.timing_epoch();
  return entry.moves;
}

std::size_t SwapMoveCache::enumerate(const GisgPartition& part, std::size_t slot,
                                     std::vector<EngineMove>& out) const {
  std::vector<SwapCandidate> cands =
      enumerate_swaps(part, static_cast<int>(slot), net_, options_.leaves_only_swaps);
  const std::size_t found = cands.size();
  if (static_cast<int>(found) > options_.max_swaps_per_sg) {
    // Keep the pairs with the largest arrival mismatch between the two
    // drivers: those are where rewiring can shift the critical path.
    const auto gap = [this](const SwapCandidate& c) {
      return std::abs(sta_.arrival(net_.driver_of(c.pin_a)) -
                      sta_.arrival(net_.driver_of(c.pin_b)));
    };
    std::sort(cands.begin(), cands.end(),
              [&gap](const SwapCandidate& a, const SwapCandidate& b) {
                return gap(a) > gap(b);
              });
    cands.resize(static_cast<std::size_t>(options_.max_swaps_per_sg));
  }
  out.clear();
  out.reserve(cands.size());
  for (const SwapCandidate& c : cands) out.push_back(EngineMove::swap(c));
  return found;
}

bool SwapMoveCache::pruned_cache_valid(const SuperGate& sg, const Entry& entry) const {
  for (const CoveredPin& p : sg.pins) {
    if (sta_.arrival_stamp(p.driver) > entry.timing_epoch) return false;
  }
  for (const GateId g : sg.covered) {
    if (sta_.arrival_stamp(g) > entry.timing_epoch) return false;
  }
  return true;
}

}  // namespace rapids
