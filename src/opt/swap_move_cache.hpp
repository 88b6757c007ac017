// Per-supergate-slot cache of enumerated swap moves: the optimizer's one
// owner of swap lists. Its probe groups are views into the lists held
// here, so each list exists exactly once.
//
// A slot's list is valid while the slot's generation is unchanged: the
// supergate, and with it its feasible swap set, is untouched since the
// moves were enumerated. A list truncated by the arrival-gap heuristic
// (more candidates than max_swaps_per_sg) also depends on the drivers'
// arrivals at enumeration time. It is served only while the slack-epoch
// stamps of every arrival the enumeration could have read prove those
// arrivals bit-identical, so a served list always equals what a fresh
// enumeration would produce, and the commit stream is the same with the
// cache on or off.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "engine/rewire_engine.hpp"
#include "netlist/network.hpp"
#include "opt/optimizer.hpp"
#include "sym/gisg.hpp"
#include "timing/sta.hpp"

namespace rapids {

class SwapMoveCache {
 public:
  /// `net` and `sta` must outlive the cache. Reads the options'
  /// leaves_only_swaps, max_swaps_per_sg (truncation: largest arrival gap
  /// first) and prune_cache (off: truncated lists re-enumerate every time).
  SwapMoveCache(const Network& net, const Sta& sta, const OptimizerOptions& options)
      : net_(net), sta_(sta), options_(options) {}

  /// The swap moves of non-trivial supergate `slot` of `part`: the cached
  /// list while it is valid, else a fresh enumeration stored in its place.
  /// The view stays valid until the next serve() of the same slot misses.
  std::span<const EngineMove> serve(const GisgPartition& part, std::size_t slot);

  /// Enumerate `slot`'s swap moves afresh into `out` (cleared first),
  /// without touching the cache. Returns the number of candidates found
  /// before truncation to max_swaps_per_sg.
  std::size_t enumerate(const GisgPartition& part, std::size_t slot,
                        std::vector<EngineMove>& out) const;

  /// Candidates enumerated by cache misses (before truncation).
  std::uint64_t candidates_enumerated() const { return candidates_enumerated_; }
  /// Non-empty lists served from the cache.
  std::uint64_t lists_reused() const { return lists_reused_; }
  /// Truncated lists served from the cache (empty ones included).
  std::uint64_t pruned_hits() const { return pruned_hits_; }

 private:
  struct Entry {
    std::uint64_t generation = 0;  // 0 = never enumerated
    std::uint64_t timing_epoch = 0;
    bool pruned = false;
    std::vector<EngineMove> moves;
  };

  /// True when no arrival a truncated enumeration could have read — the
  /// leaf drivers' and the covered gates' (candidate pins' drivers are
  /// always one or the other) — changed since the list was cached.
  bool pruned_cache_valid(const SuperGate& sg, const Entry& entry) const;

  const Network& net_;
  const Sta& sta_;
  OptimizerOptions options_;
  std::vector<Entry> entries_;  // indexed by partition slot
  std::uint64_t candidates_enumerated_ = 0;
  std::uint64_t lists_reused_ = 0;
  std::uint64_t pruned_hits_ = 0;
};

}  // namespace rapids
