// RewireEngine: transactional probe/commit/rollback over swap and resize
// moves; exact-round-trip guarantees; the stale-candidate contract; id
// recycling under probe loops.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "engine/rewire_engine.hpp"
#include "gen/suite.hpp"
#include "library/cell_library.hpp"
#include "mapping/mapper.hpp"
#include "netlist/builder.hpp"
#include "netlist/validate.hpp"
#include "place/placer.hpp"
#include "rewire/swap.hpp"
#include "sizing/sizing.hpp"
#include "sym/gisg.hpp"
#include "sym/symmetry.hpp"
#include "test_helpers.hpp"
#include "timing/sta.hpp"
#include "verify/equivalence.hpp"

namespace rapids {
namespace {

using rapids::testing::lib035;

/// Everything a probe must restore exactly.
struct StateSnapshot {
  std::vector<GateType> types;
  std::vector<std::int32_t> cells;
  std::vector<std::vector<GateId>> fanins;
  std::vector<bool> placed;
  std::vector<Point> positions;
  std::size_t num_gates = 0;
  double critical = 0.0;

  static StateSnapshot capture(const Network& net, const Placement& pl, const Sta& sta) {
    StateSnapshot s;
    s.num_gates = net.num_gates();
    s.critical = sta.critical_delay();
    for (GateId g = 0; g < net.id_bound(); ++g) {
      if (net.is_deleted(g)) {
        s.types.push_back(GateType::Buf);
        s.cells.push_back(-2);
        s.fanins.emplace_back();
        s.placed.push_back(false);
        s.positions.push_back(Point{});
        continue;
      }
      s.types.push_back(net.type(g));
      s.cells.push_back(net.cell(g));
      const auto f = net.fanins(g);
      s.fanins.emplace_back(f.begin(), f.end());
      s.placed.push_back(pl.is_placed(g));
      s.positions.push_back(pl.is_placed(g) ? pl.at(g) : Point{});
    }
    return s;
  }
};

void expect_restored(const StateSnapshot& a, const Network& net, const Placement& pl,
                     const Sta& sta) {
  ASSERT_EQ(a.num_gates, net.num_gates());
  EXPECT_NEAR(a.critical, sta.critical_delay(), 1e-12);
  ASSERT_LE(a.types.size(), net.id_bound());
  for (GateId g = 0; g < a.types.size(); ++g) {
    if (a.cells[g] == -2) {
      EXPECT_TRUE(net.is_deleted(g)) << "gate " << g << " resurrected";
      continue;
    }
    ASSERT_FALSE(net.is_deleted(g)) << "gate " << g << " vanished";
    EXPECT_EQ(a.types[g], net.type(g)) << "gate " << g;
    EXPECT_EQ(a.cells[g], net.cell(g)) << "gate " << g;
    const auto f = net.fanins(g);
    ASSERT_EQ(a.fanins[g].size(), f.size()) << "gate " << g;
    for (std::size_t i = 0; i < f.size(); ++i) {
      EXPECT_EQ(a.fanins[g][i], f[i]) << "gate " << g << " pin " << i;
    }
    EXPECT_EQ(a.placed[g], pl.is_placed(g)) << "gate " << g;
    if (a.placed[g]) {
      EXPECT_EQ(a.positions[g], pl.at(g)) << "gate " << g;
    }
  }
  // Any gates beyond the snapshot bound must be tombstones left by undone
  // probes (never live).
  for (GateId g = static_cast<GateId>(a.types.size()); g < net.id_bound(); ++g) {
    EXPECT_TRUE(net.is_deleted(g));
  }
}

struct EngineFixture {
  CellLibrary lib = lib035();
  Network net;
  Placement pl;

  explicit EngineFixture(const std::string& bench = "alu2") {
    net = map_network(make_benchmark(bench), lib).mapped;
    PlacerOptions popt;
    popt.effort = 1.0;
    popt.num_temps = 4;
    pl = place(net, lib, popt);
  }
};

TEST(RewireEngine, SwapProbeRoundTripsExactly) {
  EngineFixture f;
  Sta sta(f.net, f.lib, f.pl);
  RewireEngine engine(f.net, f.pl, f.lib, sta);
  const auto swaps = enumerate_all_swaps(engine.partition(), f.net);
  ASSERT_FALSE(swaps.empty());

  const Network golden = f.net.clone();
  const StateSnapshot snap = StateSnapshot::capture(f.net, f.pl, sta);
  // Both polarities, every candidate, twice (second pass exercises the
  // recycled-id path for inverting swaps).
  for (int pass = 0; pass < 2; ++pass) {
    for (const SwapCandidate& c : swaps) {
      engine.probe(EngineMove::swap(c));
    }
  }
  expect_restored(snap, f.net, f.pl, sta);
  EXPECT_TRUE(validate(f.net).empty());
  EXPECT_TRUE(check_equivalence(golden, f.net).equivalent);
  EXPECT_EQ(engine.stats().probes, 2 * swaps.size());
  EXPECT_EQ(engine.stats().swaps_committed, 0);
}

TEST(RewireEngine, ProbeLoopsDoNotGrowIdSpace) {
  EngineFixture f;
  Sta sta(f.net, f.lib, f.pl);
  RewireEngine engine(f.net, f.pl, f.lib, sta);
  std::vector<SwapCandidate> inverting;
  for (const SwapCandidate& c : enumerate_all_swaps(engine.partition(), f.net)) {
    if (c.polarity == SwapPolarity::Inverting) inverting.push_back(c);
  }
  ASSERT_FALSE(inverting.empty());
  // Warm up once (the first inverting probe may extend the id space), then
  // the arena must reach a fixed point: tombstoned inverter ids recycle.
  for (const SwapCandidate& c : inverting) engine.probe(EngineMove::swap(c));
  const std::size_t bound = f.net.id_bound();
  for (int pass = 0; pass < 8; ++pass) {
    for (const SwapCandidate& c : inverting) engine.probe(EngineMove::swap(c));
  }
  EXPECT_EQ(bound, f.net.id_bound());
}

TEST(RewireEngine, ChurnRestoresFreeStackAndTombstonesExactly) {
  // Arena churn: repeated insert/delete/undo cycles must restore the
  // recycled-id free stack AND the tombstone set bit-exactly, not just
  // keep id_bound() flat. This is the direct statement of the reverse-order
  // undo guarantee: any drift in the stack would make probe results depend
  // on probe history (recycled ids would come back in a different order).
  EngineFixture f;
  Sta sta(f.net, f.lib, f.pl);
  RewireEngine engine(f.net, f.pl, f.lib, sta);
  std::vector<SwapCandidate> inverting;
  for (const SwapCandidate& c : enumerate_all_swaps(engine.partition(), f.net)) {
    if (c.polarity == SwapPolarity::Inverting) inverting.push_back(c);
  }
  ASSERT_GT(inverting.size(), 3u);

  // Warm up so the id space and free stack reach steady state.
  for (const SwapCandidate& c : inverting) engine.probe(EngineMove::swap(c));

  const std::vector<GateId> stack_before(engine.net().recycling_free_ids().begin(),
                                         engine.net().recycling_free_ids().end());
  std::vector<bool> tombstones_before;
  for (GateId g = 0; g < f.net.id_bound(); ++g) {
    tombstones_before.push_back(f.net.is_deleted(g));
  }

  Rng rng(0xc4u);
  for (int cycle = 0; cycle < 500; ++cycle) {
    engine.probe(EngineMove::swap(inverting[rng.next_below(inverting.size())]));
    const auto stack_now = engine.net().recycling_free_ids();
    ASSERT_EQ(stack_before.size(), stack_now.size()) << "cycle " << cycle;
    for (std::size_t i = 0; i < stack_now.size(); ++i) {
      ASSERT_EQ(stack_before[i], stack_now[i])
          << "free-stack entry " << i << " drifted at cycle " << cycle;
    }
    ASSERT_EQ(tombstones_before.size(), f.net.id_bound()) << "cycle " << cycle;
    for (GateId g = 0; g < f.net.id_bound(); ++g) {
      ASSERT_EQ(tombstones_before[g], f.net.is_deleted(g))
          << "tombstone " << g << " drifted at cycle " << cycle;
    }
  }
  EXPECT_TRUE(validate(f.net).empty());
}

TEST(RewireEngine, InverterReuseAndInsertionUndo) {
  // h = NAND(INV(c), d) with d = INV(e) kept multi-fanout (drives an extra
  // output) so it is NOT absorbed into the supergate. The inverting swap of
  // the two leaf pins must REUSE d's input e for one side (d is an
  // inverter: no new gate) and INSERT exactly one fresh inverter for the
  // complement of c; undo removes exactly the inserted one. NAND (not AND)
  // so every gate binds directly in the 0.35um library without mapping.
  NetworkBuilder b;
  const GateId e = b.input("e");
  const GateId c = b.input("c");
  const GateId d = b.inv(e, "d");
  const GateId ic = b.inv(c, "ic");
  const GateId h = b.nand({ic, d}, "h");
  b.output("y", h);
  b.output("z", d);  // second fanout keeps d outside the supergate
  Network net = b.take();
  // Bind cells directly (no mapper) so the structure stays exactly as built.
  for (const GateId g : net.gates()) {
    if (is_logic(net.type(g))) {
      net.set_cell(g, lib035().smallest(net.type(g), static_cast<int>(net.fanin_count(g))));
      ASSERT_GE(net.cell(g), 0);
    }
  }
  Placement pl(net.id_bound());
  for (const GateId g : net.gates()) pl.set(g, Point{0, 0});
  pl.set_die(Die{});

  Sta sta(net, lib035(), pl);
  RewireEngine engine(net, pl, lib035(), sta);
  std::vector<SwapCandidate> inverting;
  for (const SwapCandidate& cand : enumerate_all_swaps(engine.partition(), net)) {
    if (cand.polarity == SwapPolarity::Inverting) inverting.push_back(cand);
  }
  ASSERT_FALSE(inverting.empty());

  const Network golden = net.clone();
  const std::size_t gates_before = net.num_gates();
  for (const SwapCandidate& cand : inverting) {
    SwapEdit edit = apply_swap(net, pl, lib035(), cand);
    // d's side reused e; only c's complement needed a fresh inverter.
    EXPECT_EQ(1u, edit.added_inverters.size());
    const GateId da = net.driver_of(edit.pin_a);
    const GateId db = net.driver_of(edit.pin_b);
    EXPECT_TRUE(da == e || db == e) << "reuse path not taken";
    undo_swap(net, pl, edit);
    EXPECT_EQ(gates_before, net.num_gates());
  }
  EXPECT_TRUE(check_equivalence(golden, net).equivalent);

  // Probing through the engine round-trips the same way.
  const StateSnapshot snap = StateSnapshot::capture(net, pl, sta);
  for (const SwapCandidate& cand : inverting) engine.probe(EngineMove::swap(cand));
  expect_restored(snap, net, pl, sta);
}

TEST(RewireEngine, ResizeProbeRoundTripsExactly) {
  EngineFixture f;
  Sta sta(f.net, f.lib, f.pl);
  RewireEngine engine(f.net, f.pl, f.lib, sta);
  const StateSnapshot snap = StateSnapshot::capture(f.net, f.pl, sta);
  int probed = 0;
  for (const GateId g : f.net.gates()) {
    if (!is_logic(f.net.type(g)) || f.net.cell(g) < 0) continue;
    for (const int cand : resize_candidates(f.net, f.lib, g)) {
      engine.probe(EngineMove::resize(g, cand));
      ++probed;
    }
    if (probed > 200) break;
  }
  ASSERT_GT(probed, 0);
  expect_restored(snap, f.net, f.pl, sta);
}

TEST(EngineMove, CopiesRoundTripCompareProbeAndCommitLikeTheOriginal) {
  // Swap and Resize moves are plain values with their payload inline. A
  // copy of either must read back, compare, probe and commit exactly like
  // the move it was copied from.
  NetworkBuilder b;
  const GateId a = b.input("a"), bb = b.input("b"), c = b.input("c");
  const GateId d = b.input("d"), e = b.input("e"), g = b.input("g");
  const GateId p = b.input("p"), q = b.input("q"), r = b.input("r");
  b.output("f", b.xor_({b.and_({a, bb, c}), b.or_({d, e, g})}));
  b.output("h", b.and_({p, b.nor({q, r})}));
  const CellLibrary& lib = lib035();
  Network net = map_network(b.take(), lib).mapped;
  Placement pl(net.id_bound());
  for (const GateId gate : net.gates()) pl.set(gate, Point{0, 0});
  pl.set_die(Die{});
  Network twin_net = net.clone();
  Placement twin_pl = pl;
  Sta sta(net, lib, pl);
  Sta twin_sta(twin_net, lib, twin_pl);
  sta.run_full();
  twin_sta.run_full();
  RewireEngine engine(net, pl, lib, sta);
  RewireEngine twin(twin_net, twin_pl, lib, twin_sta);

  const std::vector<SwapCandidate> swaps = enumerate_all_swaps(engine.partition(), net);
  ASSERT_FALSE(swaps.empty());
  GateId sized = kNullGate;
  int cell = -1;
  for (const GateId gate : net.gates()) {
    if (!is_logic(net.type(gate)) || net.cell(gate) < 0) continue;
    const std::vector<int> cands = resize_candidates(net, lib, gate);
    if (cands.empty()) continue;
    sized = gate;
    cell = cands.front();
    break;
  }
  ASSERT_NE(sized, kNullGate);

  const EngineMove swap = EngineMove::swap(swaps.front());
  const EngineMove resize = EngineMove::resize(sized, cell);
  EXPECT_EQ(swap.kind(), EngineMove::Kind::Swap);
  EXPECT_EQ(resize.kind(), EngineMove::Kind::Resize);
  EXPECT_EQ(swap.swap_cand(), swaps.front());
  EXPECT_EQ(resize.gate(), sized);
  EXPECT_EQ(resize.new_cell(), cell);
  EXPECT_EQ(EngineMove{}.kind(), EngineMove::Kind::Swap);

  // Copies compare equal to their originals and unequal across kinds and
  // payloads.
  const std::vector<EngineMove> originals = {swap, resize};
  for (std::size_t i = 0; i < originals.size(); ++i) {
    const EngineMove copy = originals[i];
    EXPECT_EQ(copy, originals[i]) << "move " << i;
    for (std::size_t j = 0; j < originals.size(); ++j) {
      if (j == i) continue;
      EXPECT_FALSE(copy == originals[j]) << "moves " << i << ", " << j;
    }
  }
  EXPECT_FALSE(EngineMove::resize(sized, cell) == EngineMove::resize(sized, cell + 1));

  // Probing a copy gives bit-identical objectives.
  for (const EngineMove& m : originals) {
    const EngineMove copy = m;
    const EngineObjective a = engine.probe(m);
    const EngineObjective b = engine.probe(copy);
    EXPECT_EQ(a.critical, b.critical);
    EXPECT_EQ(a.sum_po, b.sum_po);
  }

  // Committing copies on the twin leaves the same network and arrival bits
  // as committing the originals.
  for (const EngineMove& m : originals) {
    const EngineMove copy = m;
    const EngineObjective a = engine.commit(m);
    const EngineObjective b = twin.commit(copy);
    EXPECT_EQ(a.critical, b.critical);
    EXPECT_EQ(a.sum_po, b.sum_po);
  }
  EXPECT_EQ(engine.stats().swaps_committed, 1);
  EXPECT_EQ(engine.stats().resizes_committed, 1);
  ASSERT_EQ(net.id_bound(), twin_net.id_bound());
  for (GateId gate = 0; gate < net.id_bound(); ++gate) {
    ASSERT_EQ(net.is_deleted(gate), twin_net.is_deleted(gate)) << "gate " << gate;
    if (net.is_deleted(gate)) continue;
    EXPECT_EQ(net.type(gate), twin_net.type(gate)) << "gate " << gate;
    EXPECT_EQ(net.cell(gate), twin_net.cell(gate)) << "gate " << gate;
    const auto fa = net.fanins(gate);
    const auto fb = twin_net.fanins(gate);
    EXPECT_TRUE(std::equal(fa.begin(), fa.end(), fb.begin(), fb.end())) << "gate " << gate;
  }
  EXPECT_TRUE(validate(net).empty());
  ASSERT_EQ(sta.arrivals().size(), twin_sta.arrivals().size());
  for (std::size_t i = 0; i < sta.arrivals().size(); ++i) {
    EXPECT_EQ(sta.arrivals()[i].rise, twin_sta.arrivals()[i].rise) << "gate " << i;
    EXPECT_EQ(sta.arrivals()[i].fall, twin_sta.arrivals()[i].fall) << "gate " << i;
  }
}

TEST(RewireEngine, CommitBumpsEpochAndReextractsPartition) {
  EngineFixture f;
  Sta sta(f.net, f.lib, f.pl);
  RewireEngine engine(f.net, f.pl, f.lib, sta);
  const GisgPartition& before = engine.partition();
  const std::size_t sgs_before = before.sgs.size();
  const auto swaps = enumerate_all_swaps(before, f.net);
  ASSERT_FALSE(swaps.empty());
  const std::uint64_t epoch0 = engine.epoch();

  const Network golden = f.net.clone();
  engine.commit(EngineMove::swap(swaps.front()));
  EXPECT_EQ(epoch0 + 1, engine.epoch());
  EXPECT_EQ(1, engine.stats().swaps_committed);

  // The stale-candidate contract (rewire/swap.hpp): after a commit the
  // engine re-derives the partition from the restructured netlist instead
  // of serving the stale one. Pre-commit SuperGate pointers must not be
  // consulted again — the engine gives the fresh extraction.
  const GisgPartition& after = engine.partition();
  ASSERT_GE(after.sgs.size(), 1u);
  EXPECT_TRUE(check_equivalence(golden, f.net).equivalent);
  (void)sgs_before;

  // Fresh candidates from the new epoch remain probe-safe.
  const auto swaps2 = enumerate_all_swaps(after, f.net);
  for (const SwapCandidate& c : swaps2) engine.probe(EngineMove::swap(c));
  EXPECT_TRUE(check_equivalence(golden, f.net).equivalent);
}

TEST(RewireEngine, CommitBestRevalidatesAndPreservesFunction) {
  EngineFixture f("c432");
  Sta sta(f.net, f.lib, f.pl);
  RewireEngine engine(f.net, f.pl, f.lib, sta);
  const Network golden = f.net.clone();
  const double base = sta.critical_delay();

  // Rank the best swap per supergate by probed gain (one per supergate —
  // the contract commit_best requires).
  std::vector<RankedMove> ranked;
  const GisgPartition& part = engine.partition();
  for (std::size_t s = 0; s < part.sgs.size(); ++s) {
    if (part.sgs[s].is_trivial()) continue;
    const auto cands = enumerate_swaps(part, static_cast<int>(s), f.net);
    const SwapCandidate* best = nullptr;
    double best_gain = 1e-6;
    for (const SwapCandidate& c : cands) {
      const EngineObjective obj = engine.probe(EngineMove::swap(c));
      if (base - obj.critical > best_gain) {
        best_gain = base - obj.critical;
        best = &c;
      }
    }
    if (best != nullptr) ranked.push_back(RankedMove{EngineMove::swap(*best), best_gain});
  }

  const int committed = engine.commit_best(ranked, 1e-6);
  EXPECT_EQ(committed, engine.stats().swaps_committed);
  EXPECT_LE(committed, static_cast<int>(ranked.size()));
  sta.run_full();
  EXPECT_LE(sta.critical_delay(), base + 1e-9);
  EXPECT_TRUE(validate(f.net).empty());
  EXPECT_TRUE(check_equivalence(golden, f.net).equivalent);
}

TEST(RewireEngine, CommitAndRevertRestoresState) {
  EngineFixture f;
  Sta sta(f.net, f.lib, f.pl);
  RewireEngine engine(f.net, f.pl, f.lib, sta);
  const auto swaps = enumerate_all_swaps(engine.partition(), f.net);
  ASSERT_FALSE(swaps.empty());
  const Network golden = f.net.clone();
  const StateSnapshot snap = StateSnapshot::capture(f.net, f.pl, sta);
  for (const SwapCandidate& c : swaps) {
    engine.commit_and_revert(EngineMove::swap(c));
  }
  expect_restored(snap, f.net, f.pl, sta);
  EXPECT_TRUE(check_equivalence(golden, f.net).equivalent);
}

TEST(RemoveDanglingInverters, DeletesOnlyFanoutFreeInverterChains) {
  NetworkBuilder b;
  const GateId a = b.input("a");
  const GateId n1 = b.inv(a, "n1");       // feeds the output: must stay
  const GateId n2 = b.inv(n1, "n2");      // dangling
  const GateId n3 = b.inv(n2, "n3");      // dangling chain head
  b.output("y", n1);
  Network net = b.take();
  (void)n3;

  const std::size_t removed = remove_dangling_inverters(net);
  EXPECT_EQ(2u, removed);  // n3 first, then n2 becomes fanout-free
  EXPECT_FALSE(net.is_deleted(n1));
  EXPECT_TRUE(net.is_deleted(n2));
  EXPECT_TRUE(net.is_deleted(n3));
  EXPECT_TRUE(validate(net).empty());
}

TEST(AdjacencyArena, ChunksRecycleAcrossDeleteAddCycles) {
  // Steady-state add/delete of gates must not grow the adjacency pools:
  // released chunks feed later allocations of the same size class.
  NetworkBuilder b;
  const GateId a = b.input("a");
  const GateId c = b.input("c");
  Network net = b.take();
  net.set_id_recycling(true);
  // Warm-up allocates; afterwards id_bound must stay fixed.
  for (int i = 0; i < 4; ++i) {
    const GateId g = net.add_gate(GateType::And);
    net.add_fanin(g, a);
    net.add_fanin(g, c);
    net.delete_gate(g);
  }
  const std::size_t bound = net.id_bound();
  for (int i = 0; i < 1000; ++i) {
    const GateId g = net.add_gate(GateType::And);
    net.add_fanin(g, a);
    net.add_fanin(g, c);
    net.delete_gate(g);
  }
  EXPECT_EQ(bound, net.id_bound());
  net.set_id_recycling(false);
  // With recycling off, ids tombstone forever again.
  const GateId g1 = net.add_gate(GateType::Inv);
  net.add_fanin(g1, a);
  const std::size_t after = net.id_bound();
  net.delete_gate(g1);
  const GateId g2 = net.add_gate(GateType::Inv);
  EXPECT_EQ(after + 1, net.id_bound());
  EXPECT_NE(g1, g2);
}

}  // namespace
}  // namespace rapids
