// Timing-kernel tests: the arrival bits of a full run and of a fixed
// probe/rollback/commit script are hashed against values captured before
// the kernel moved to flat timing rows and level-ordered propagation; the
// rows are checked against a fresh computation after every kind of edit;
// and critical-path pruning is checked against unpruned probes.
#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <string>
#include <vector>

#include "engine/rewire_engine.hpp"
#include "gen/large.hpp"
#include "gen/suite.hpp"
#include "parallel/probe_context.hpp"
#include "parallel/scheduler.hpp"
#include "place/placer.hpp"
#include "session/session.hpp"
#include "sizing/sizing.hpp"
#include "sym/symmetry.hpp"
#include "test_helpers.hpp"
#include "timing/sta.hpp"

namespace rapids {
namespace {

using rapids::testing::lib035;
using rapids::testing::live_gates;
using rapids::testing::mapped;

/// FNV-1a over raw double bits.
struct Fnv {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void mix(double v) {
    const auto bits = std::bit_cast<std::uint64_t>(v);
    for (int i = 0; i < 64; i += 8) {
      h ^= (bits >> i) & 0xffU;
      h *= 0x100000001b3ULL;
    }
  }
  void mix(const Sta& sta) {
    for (const RiseFall& a : sta.arrivals()) {
      mix(a.rise);
      mix(a.fall);
    }
    mix(sta.critical_delay());
  }
};

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016llx", static_cast<unsigned long long>(v));
  return buf;
}

Network circuit(const std::string& name) {
  if (name == "gen:3000") {
    LargeCircuitOptions lopt;
    lopt.target_gates = 3000;
    return mapped(make_large_circuit(lopt));
  }
  return mapped(make_benchmark(name));
}

struct ScriptHashes {
  std::uint64_t full = 0;
  std::uint64_t script = 0;
};

/// Three rounds of: refresh margins, probe a spread of swap and resize
/// candidates (hashing every objective), then commit one swap (inverting on
/// odd rounds) and one resize. The final arrivals close the script hash.
ScriptHashes run_script(const std::string& name) {
  const CellLibrary& lib = lib035();
  Network net = circuit(name);
  PlacerOptions popt;
  popt.effort = 2.0;
  popt.num_temps = 8;
  Placement pl = place(net, lib, popt);
  Sta sta(net, lib, pl);
  ScriptHashes out;
  Fnv full;
  full.mix(sta);
  out.full = full.h;

  RewireEngine engine(net, pl, lib, sta);
  Fnv h;
  const auto mix_obj = [&h](const EngineObjective& o) {
    h.mix(o.critical);
    h.mix(o.sum_po);
  };
  for (int round = 0; round < 3; ++round) {
    engine.refresh_timing_margins();
    const std::vector<SwapCandidate> swaps = enumerate_all_swaps(engine.partition(), net);
    const std::size_t step = std::max<std::size_t>(1, swaps.size() / 150);
    for (std::size_t i = 0; i < swaps.size(); i += step) {
      mix_obj(engine.probe(EngineMove::swap(swaps[i])));
    }
    const std::vector<GateId> gates = live_gates(net);
    std::vector<EngineMove> resizes;
    for (std::size_t i = static_cast<std::size_t>(round); i < gates.size(); i += 7) {
      const GateId g = gates[i];
      if (!is_logic(net.type(g)) || net.cell(g) < 0) continue;
      for (const int c : resize_candidates(net, lib, g)) {
        resizes.push_back(EngineMove::resize(g, c));
      }
      if (resizes.size() >= 60) break;
    }
    for (const EngineMove& m : resizes) mix_obj(engine.probe(m));

    const std::vector<SwapCandidate> fresh = enumerate_all_swaps(engine.partition(), net);
    if (!fresh.empty()) {
      std::size_t pick = (static_cast<std::size_t>(round) * 977) % fresh.size();
      if (round % 2 == 1) {
        for (std::size_t k = 0; k < fresh.size(); ++k) {
          const std::size_t j = (pick + k) % fresh.size();
          if (fresh[j].polarity == SwapPolarity::Inverting) {
            pick = j;
            break;
          }
        }
      }
      mix_obj(engine.commit(EngineMove::swap(fresh[pick])));
    }
    if (!resizes.empty()) mix_obj(engine.commit(resizes[resizes.size() / 3]));
  }
  h.mix(sta);
  h.mix(sta.sum_po_arrival());
  out.script = h.h;
  return out;
}

TEST(Sta, GoldenArrivalHash) {
  // The full values were captured on the FIFO-worklist kernel that read the
  // cell library on every recompute; the flat-row, level-ordered kernel
  // must reproduce every bit. The script values were re-captured when the
  // script stopped probing and committing cross-supergate moves (c432 has
  // none, so its value did not move).
  struct Case {
    const char* circuit;
    std::uint64_t full;
    std::uint64_t script;
  };
  const Case cases[] = {
      {"c432", 0x7e37a369e06d0b0eULL, 0xd5e29db28be65dddULL},
      {"c6288", 0x86b171152153361aULL, 0x802b25eb3e3efefcULL},
      {"gen:3000", 0xa1b2b02217c63460ULL, 0x7cf5945c86d38c87ULL},
  };
  for (const Case& c : cases) {
    const ScriptHashes got = run_script(c.circuit);
    EXPECT_EQ(hex(got.full), hex(c.full)) << c.circuit << " run_full";
    EXPECT_EQ(hex(got.script), hex(c.script)) << c.circuit << " script";
  }
}

/// Every live gate's row equals a from-scratch computation, and a brand-new
/// analysis of the same network and placement agrees on rows and arrivals.
void expect_rows_fresh(const Network& net, const Placement& pl, const Sta& sta,
                       const std::string& where) {
  const Sta fresh(net, lib035(), pl);
  int bad = 0;
  for (const GateId g : net.gates()) {
    ASSERT_LT(g, sta.rows().size()) << where;
    if (!(sta.rows()[g] == sta.fresh_row(g)) || !(sta.rows()[g] == fresh.rows()[g]) ||
        !(sta.arrivals()[g] == fresh.arrivals()[g])) {
      ADD_FAILURE() << where << ": gate " << g << " row/arrival differs from fresh";
      if (++bad > 5) return;
    }
  }
  EXPECT_EQ(sta.critical_delay(), fresh.critical_delay()) << where;
  EXPECT_EQ(sta.sum_po_arrival(), fresh.sum_po_arrival()) << where;
}

TEST(Sta, RowsMatchFreshCompute) {
  const CellLibrary& lib = lib035();
  Network net = circuit("c5315");
  PlacerOptions popt;
  popt.effort = 2.0;
  popt.num_temps = 8;
  Placement pl = place(net, lib, popt);
  Sta sta(net, lib, pl);
  RewireEngine engine(net, pl, lib, sta);
  // A replica kept current by delta sync (adopt_delta) after a full sync
  // (copy_state_from).
  ProbeContext ctx(lib, 1, 0);
  ctx.sync(engine);
  expect_rows_fresh(ctx.replica_net(), ctx.replica_placement(), ctx.replica_sta(),
                    "after copy_state_from");

  int inverting_commits = 0;
  for (int round = 0; round < 4; ++round) {
    engine.refresh_timing_margins();
    // Probes roll back: rows must come back exactly.
    const std::vector<SwapCandidate> swaps = enumerate_all_swaps(engine.partition(), net);
    for (std::size_t i = 0; i < swaps.size(); i += 5) engine.probe(EngineMove::swap(swaps[i]));
    const std::vector<GateId> gates = live_gates(net);
    std::vector<EngineMove> resizes;
    for (std::size_t i = static_cast<std::size_t>(round); i < gates.size(); i += 11) {
      if (!is_logic(net.type(gates[i])) || net.cell(gates[i]) < 0) continue;
      for (const int c : resize_candidates(net, lib, gates[i])) {
        resizes.push_back(EngineMove::resize(gates[i], c));
      }
    }
    for (const EngineMove& m : resizes) engine.probe(m);
    expect_rows_fresh(net, pl, sta, "after probes, round " + std::to_string(round));

    // Commits: an inverting swap (its inverters land on recycled ids) and a
    // resize.
    const std::vector<SwapCandidate> fresh = enumerate_all_swaps(engine.partition(), net);
    for (std::size_t k = 0; k < fresh.size(); ++k) {
      const SwapCandidate& c = fresh[(k + static_cast<std::size_t>(round) * 131) % fresh.size()];
      if (c.polarity != SwapPolarity::Inverting) continue;
      engine.commit(EngineMove::swap(c));
      ++inverting_commits;
      break;
    }
    if (!resizes.empty()) engine.commit(resizes[resizes.size() / 2]);
    expect_rows_fresh(net, pl, sta, "after commits, round " + std::to_string(round));

    ctx.sync(engine);
    expect_rows_fresh(ctx.replica_net(), ctx.replica_placement(), ctx.replica_sta(),
                      "after adopt_delta, round " + std::to_string(round));
  }
  EXPECT_GT(inverting_commits, 0);
  EXPECT_GT(ctx.take_sync_stats().delta_syncs, 0u);
}

/// Every swap and resize move of the current state.
std::vector<EngineMove> all_moves(RewireEngine& engine, const CellLibrary& lib) {
  std::vector<EngineMove> moves;
  Network& net = engine.net();
  for (const SwapCandidate& c : enumerate_all_swaps(engine.partition(), net)) {
    moves.push_back(EngineMove::swap(c));
  }
  for (const GateId g : live_gates(net)) {
    if (!is_logic(net.type(g)) || net.cell(g) < 0) continue;
    for (const int c : resize_candidates(net, lib, g)) {
      moves.push_back(EngineMove::resize(g, c));
    }
  }
  return moves;
}

TEST(CriticalPathPruning, PrunedProbesNeverGain) {
  // Oracle: probe every pruned move again without the mask; its critical
  // delay must be >= the baseline. Unpruned probes must return exactly
  // what an unmasked probe returns.
  const CellLibrary& lib = lib035();
  for (const char* name : {"c432", "c6288", "gen:3000"}) {
    Network net = circuit(name);
    PlacerOptions popt;
    popt.effort = 2.0;
    popt.num_temps = 8;
    Placement pl = place(net, lib, popt);
    Sta sta(net, lib, pl);
    RewireEngine engine(net, pl, lib, sta);
    engine.refresh_timing_margins();
    const double base = sta.critical_delay();
    std::vector<std::uint8_t> mask(net.id_bound(), 0);
    for (const GateId g : sta.critical_path()) mask[g] = 1;

    ProbeScratch scratch;
    std::uint64_t pruned = 0;
    std::uint64_t kept = 0;
    for (const EngineMove& m : all_moves(engine, lib)) {
      const EngineObjective masked = engine.probe_with(scratch, m, mask);
      const EngineObjective full = engine.probe_with(scratch, m);
      ASSERT_FALSE(full.pruned);
      if (masked.pruned) {
        ++pruned;
        EXPECT_GE(full.critical, base) << name;
        EXPECT_EQ(masked.critical, base) << name;
      } else {
        ++kept;
        EXPECT_EQ(masked.critical, full.critical) << name;
        EXPECT_EQ(masked.sum_po, full.sum_po) << name;
      }
    }
    EXPECT_GT(pruned, 0u) << name;
    EXPECT_GT(kept, 0u) << name;
    EXPECT_EQ(engine.stats().probes_pruned, pruned) << name;
    EXPECT_EQ(engine.stats().probes, 2 * (pruned + kept)) << name;
  }
}

TEST(CriticalPathPruning, OnlyNonNegativeMinCriticalRoundsPrune) {
  const CellLibrary& lib = lib035();
  Network net = circuit("c6288");
  PlacerOptions popt;
  popt.effort = 2.0;
  popt.num_temps = 8;
  Placement pl = place(net, lib, popt);
  Sta sta(net, lib, pl);
  RewireEngine engine(net, pl, lib, sta);
  std::vector<std::vector<EngineMove>> lists;
  for (const EngineMove& m : all_moves(engine, lib)) {
    if (lists.empty() || lists.back().size() == 8) lists.emplace_back();
    lists.back().push_back(m);
  }
  const std::vector<ProbeGroup> groups(lists.begin(), lists.end());
  SessionContext session("default");
  for (const int threads : {1, 2}) {
    SchedulerOptions sopt;
    sopt.threads = threads;
    ParallelRewireScheduler sched(engine, session, sopt);
    const auto pruned_by = [&](ProbePolicy policy, double threshold) {
      const std::uint64_t before = engine.stats().probes_pruned;
      sched.probe_round(groups, policy, threshold);
      return engine.stats().probes_pruned - before;
    };
    EXPECT_GT(pruned_by(ProbePolicy::MinCritical, 1e-6), 0u) << threads;
    EXPECT_GT(pruned_by(ProbePolicy::MinCritical, 0.0), 0u) << threads;
    EXPECT_EQ(pruned_by(ProbePolicy::MinCritical, -1e-3), 0u) << threads;
    EXPECT_EQ(pruned_by(ProbePolicy::Relaxation, 1e-6), 0u) << threads;
    EXPECT_EQ(pruned_by(ProbePolicy::FirstFit, sta.critical_delay()), 0u) << threads;
  }
}

}  // namespace
}  // namespace rapids
