// SwapMoveCache: the optimizer's one owner of swap lists. Every list it
// serves — truncated (arrival-gap pruned) lists above all — must equal a
// fresh enumeration of the current state, and serving a valid list hands
// out the cache's own storage rather than a copy.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <optional>
#include <string>
#include <vector>

#include "engine/rewire_engine.hpp"
#include "flow/flow.hpp"
#include "opt/swap_move_cache.hpp"
#include "sizing/sizing.hpp"
#include "test_helpers.hpp"
#include "timing/sta.hpp"

namespace rapids {
namespace {

using rapids::testing::lib035;

/// Live non-trivial slots in root order (the optimizer's group order).
std::vector<std::size_t> nontrivial_slots(const GisgPartition& part) {
  std::vector<std::size_t> slots;
  for (std::size_t s = 0; s < part.sgs.size(); ++s) {
    if (!part.sgs[s].is_trivial()) slots.push_back(s);
  }
  std::sort(slots.begin(), slots.end(), [&part](std::size_t a, std::size_t b) {
    return part.sgs[a].root < part.sgs[b].root;
  });
  return slots;
}

/// Commit the resize of one of `sg`'s leaf drivers that moves the sum of
/// PO arrivals the most. Resizes leave the partition (and so every slot's
/// generation) alone, so the arrival stamps alone must catch the change.
/// Returns false when no leaf driver can be resized.
bool commit_leaf_resize(RewireEngine& engine, const SuperGate& sg) {
  const Network& net = engine.net();
  const double base = engine.sta().sum_po_arrival();
  std::optional<EngineMove> best;
  double best_shift = -1.0;
  for (const CoveredPin& p : sg.pins) {
    if (!p.leaf || !is_logic(net.type(p.driver)) || net.cell(p.driver) < 0) continue;
    for (const int cell : resize_candidates(net, engine.lib(), p.driver)) {
      const EngineMove m = EngineMove::resize(p.driver, cell);
      const double shift = std::abs(engine.probe(m).sum_po - base);
      if (shift > best_shift) {
        best = m;
        best_shift = shift;
      }
    }
  }
  if (!best) return false;
  engine.commit(*best);
  return true;
}

/// Fixed probe/commit script: before the first and after every commit,
/// serve every non-trivial slot and compare it with a fresh enumeration.
/// Then commit, walking the slots with a fixed stride: on even steps the
/// best sum-of-PO swap of the next non-empty list, on odd steps a resize
/// of a leaf driver of the next truncated list. Sets `pruned_served` to
/// the number of truncated lists served from the cache, so callers can
/// check the script exercised them.
void run_script(PreparedCircuit& c, const OptimizerOptions& options, int commits,
                std::uint64_t& pruned_served) {
  const CellLibrary& lib = lib035();
  Sta sta(c.mapped, lib, c.placement);
  sta.run_full();
  RewireEngine engine(c.mapped, c.placement, lib, sta);
  SwapMoveCache cache(c.mapped, sta, options);
  std::vector<EngineMove> fresh;
  for (int step = 0; step <= commits; ++step) {
    const GisgPartition& part = engine.partition();
    const std::vector<std::size_t> slots = nontrivial_slots(part);
    std::vector<std::size_t> truncated;
    for (const std::size_t s : slots) {
      const std::span<const EngineMove> served = cache.serve(part, s);
      const std::size_t found = cache.enumerate(part, s, fresh);
      ASSERT_TRUE(std::ranges::equal(served, fresh))
          << "slot " << s << " after " << step << " commits: served " << served.size()
          << " moves, fresh enumeration " << fresh.size();
      if (static_cast<int>(found) > options.max_swaps_per_sg) truncated.push_back(s);
      // A valid list is served from the cache's own storage: no copy and
      // no re-enumeration.
      const std::uint64_t enumerated = cache.candidates_enumerated();
      const std::span<const EngineMove> again = cache.serve(part, s);
      EXPECT_EQ(again.data(), served.data()) << "slot " << s;
      EXPECT_EQ(again.size(), served.size()) << "slot " << s;
      EXPECT_EQ(cache.candidates_enumerated(), enumerated) << "slot " << s;
    }
    if (step == commits) break;
    ASSERT_FALSE(truncated.empty());

    const std::size_t stride = 7 * static_cast<std::size_t>(step);
    if (step % 2 == 1) {
      bool resized = false;
      for (std::size_t k = 0; k < truncated.size() && !resized; ++k) {
        resized = commit_leaf_resize(engine, part.sgs[truncated[(stride + k) % truncated.size()]]);
      }
      ASSERT_TRUE(resized);
      continue;
    }
    std::span<const EngineMove> moves;
    for (std::size_t k = 0; k < slots.size() && moves.empty(); ++k) {
      moves = cache.serve(part, slots[(stride + k) % slots.size()]);
    }
    ASSERT_FALSE(moves.empty());
    const EngineMove* best = &moves.front();
    double best_sum = engine.probe(*best).sum_po;
    for (const EngineMove& m : moves) {
      const double sum = engine.probe(m).sum_po;
      if (sum < best_sum) {
        best = &m;
        best_sum = sum;
      }
    }
    engine.commit(*best);
  }
  pruned_served = cache.pruned_hits();
}

TEST(SwapMoveCache, ServedPrunedListsEqualReenumeration) {
  // k2 at the flow's default options: wide supergates whose swap sets are
  // truncated to the default cap.
  {
    PreparedCircuit k2 = prepare_benchmark("k2", lib035());
    std::uint64_t pruned_served = 0;
    run_script(k2, OptimizerOptions{}, 12, pruned_served);
    EXPECT_GT(pruned_served, 0u);
  }
  // A generated circuit with a cap of 8: most lists are truncated, so the
  // slack-epoch stamps decide nearly every serve.
  {
    const std::string spec = "gen:1500:3";
    PreparedCircuit gen = prepare_circuit(spec, load_circuit(spec), lib035());
    OptimizerOptions options;
    options.max_swaps_per_sg = 8;
    std::uint64_t pruned_served = 0;
    run_script(gen, options, 24, pruned_served);
    EXPECT_GT(pruned_served, 0u);
  }
}

}  // namespace
}  // namespace rapids
