// Incremental GISG partition maintenance: region re-extraction with stable
// slots + generation stamps (sym/gisg reextract_region), the engine's
// per-commit dirty accumulation, and the invalidation edge cases — merge,
// split, recycled ids, and the full-rebuild escape hatch.
//
// The anchor invariant throughout: an incrementally maintained partition is
// CANONICALLY IDENTICAL (same coverings, same per-supergate pins / implied
// values / redundancy records, up to slot renumbering) to a fresh full
// extraction of the same network.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "engine/rewire_engine.hpp"
#include "flow/flow.hpp"
#include "fuzz/fuzz.hpp"
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
using rapids::testing::random_mapped_network;

/// Seeds for a manual edit: the touched gates plus their current fanout
/// gates — the same rule RewireEngine::mark_commit_dirty applies.
std::vector<GateId> seeds_for(const Network& net, std::initializer_list<GateId> touched) {
  std::vector<GateId> seeds;
  for (const GateId g : touched) {
    if (g == kNullGate || g >= net.id_bound() || net.is_deleted(g)) continue;
    seeds.push_back(g);
    for (const Pin& p : net.fanouts(g)) seeds.push_back(p.gate);
  }
  return seeds;
}

void expect_matches_fresh(const GisgPartition& part, const Network& net,
                          const std::string& context) {
  const GisgPartition fresh = extract_gisg(net);
  std::string diag;
  EXPECT_TRUE(partitions_canonically_equal(part, fresh, &diag))
      << context << ": " << diag;
}

// --- region re-extraction on hand-built edits -------------------------------

TEST(IncrementalGisg, MergeTwoSupergatesWhenStemDropsToSingleFanout) {
  // shared = AND(x,y) feeds BOTH f and g: three supergates. Rewiring g's
  // pin off `shared` drops it to single fanout — f's supergate must absorb
  // shared (two supergates merge into one region).
  NetworkBuilder b;
  const GateId x = b.input("x"), y = b.input("y"), z = b.input("z"), w = b.input("w");
  const GateId shared = b.and_({x, y});
  const GateId f = b.and_({shared, z});
  const GateId g = b.or_({shared, w});
  b.output("f", f);
  b.output("g", g);
  Network net = b.take();

  GisgPartition part = extract_gisg(net);
  ASSERT_EQ(part.sgs.size(), 3u);
  const std::uint64_t gen0 = part.generation;

  net.set_fanin(Pin{g, 0}, w);  // g = OR(w, w): shared now single-fanout
  const PartitionStats stats =
      reextract_region(part, net, seeds_for(net, {g, shared, w}));
  expect_matches_fresh(part, net, "merge");
  EXPECT_GT(stats.sgs_reextracted, 0u);
  EXPECT_GT(part.generation, gen0);
  // shared is now covered by f's supergate.
  EXPECT_EQ(part.sg_of_gate[shared], part.sg_of_gate[f]);
}

TEST(IncrementalGisg, SplitSupergateWhenInternalGateGainsFanout) {
  // One AND supergate covering lo/hi/root; tapping `lo` with a new sink
  // makes it a multi-fanout stem — the supergate must split.
  NetworkBuilder b;
  const GateId x0 = b.input("x0"), x1 = b.input("x1"), x2 = b.input("x2"),
               x3 = b.input("x3");
  const GateId lo = b.and_({x0, x1});
  const GateId hi = b.and_({x2, x3});
  const GateId root = b.and_({lo, hi});
  b.output("f", root);
  Network net = b.take();

  GisgPartition part = extract_gisg(net);
  ASSERT_EQ(part.sgs.size(), 1u);
  ASSERT_EQ(part.sgs[0].covered.size(), 3u);

  // New observer gate on `lo` (mimics an inverting swap inserting an
  // inverter whose input taps an internal node).
  const GateId tap = net.add_gate(GateType::Inv);
  net.add_fanin(tap, lo);
  const GateId po = net.add_gate(GateType::Output, "f2");
  net.add_fanin(po, tap);

  reextract_region(part, net, seeds_for(net, {tap, lo}));
  expect_matches_fresh(part, net, "split");
  // lo now roots its own supergate, split off root's.
  EXPECT_NE(part.sg_of_gate[lo], part.sg_of_gate[root]);
}

TEST(IncrementalGisg, CleanSupergatesKeepSlotAndGeneration) {
  Network net = testing::mapped(random_mapped_network(7));
  GisgPartition part = extract_gisg(net);

  // Pick a non-trivial supergate and rewire inside it: swap two leaf
  // drivers of its root (a legal structural edit for this test's purposes —
  // function preservation is irrelevant here).
  const std::vector<SwapCandidate> swaps = enumerate_all_swaps(part, net);
  ASSERT_FALSE(swaps.empty());
  const SwapCandidate c = swaps.front();
  const GateId da = net.driver_of(c.pin_a);
  const GateId db = net.driver_of(c.pin_b);
  net.set_fanin(c.pin_a, db);
  net.set_fanin(c.pin_b, da);

  // Record every clean slot's (root, generation).
  const std::int32_t dirty_slot = part.sg_of_gate[c.pin_a.gate];
  std::vector<std::pair<GateId, std::uint64_t>> before;
  for (const SuperGate& sg : part.sgs) before.emplace_back(sg.root, sg.generation);

  reextract_region(part, net, seeds_for(net, {c.pin_a.gate, c.pin_b.gate, da, db}));
  expect_matches_fresh(part, net, "leaf swap");

  // The touched slot was re-extracted (or dissolved); at least one slot
  // changed generation, and the vast majority kept root AND generation.
  std::size_t kept = 0, changed = 0;
  for (std::size_t s = 0; s < before.size(); ++s) {
    if (part.sgs[s].live() && part.sgs[s].root == before[s].first &&
        part.sgs[s].generation == before[s].second) {
      ++kept;
    } else {
      ++changed;
    }
  }
  EXPECT_GT(changed, 0u);
  EXPECT_GT(kept, changed) << "an incremental update re-extracted most of the network";
  EXPECT_NE(part.sgs[static_cast<std::size_t>(dirty_slot)].generation,
            before[static_cast<std::size_t>(dirty_slot)].second);
}

TEST(IncrementalGisg, RecycledGateIdLandsInCleanRegion) {
  // A recycled id re-enters the network in a DIFFERENT region than the gate
  // that freed it; the update must cover the new gate and leave no stale
  // mapping behind.
  NetworkBuilder b;
  const GateId x = b.input("x"), y = b.input("y"), z = b.input("z"), w = b.input("w");
  const GateId left = b.and_({x, y});
  const GateId right = b.or_({z, w});
  b.output("l", b.inv(left));
  b.output("r", right);
  Network net = b.take();
  net.set_id_recycling(true);

  GisgPartition part = extract_gisg(net);

  // Free an id from the left region: the INV between left and the output.
  const GateId inv = net.fanouts(left)[0].gate;
  ASSERT_EQ(net.type(inv), GateType::Inv);
  const GateId out_l = net.fanouts(inv)[0].gate;
  net.set_fanin(Pin{out_l, 0}, left);
  net.delete_gate(inv);
  reextract_region(part, net, seeds_for(net, {left, out_l}));
  expect_matches_fresh(part, net, "delete inv");

  // Recycle that id as a buffer in the RIGHT region.
  const GateId buf = net.add_gate(GateType::Buf);
  ASSERT_EQ(buf, inv) << "expected the tombstoned id to be recycled";
  net.add_fanin(buf, right);
  const GateId out_r = net.fanouts(right)[0].gate;  // includes the new buf sink
  // Reconnect the output marker through the buffer.
  GateId po = kNullGate;
  for (const Pin& p : net.fanouts(right)) {
    if (net.type(p.gate) == GateType::Output) po = p.gate;
  }
  ASSERT_NE(po, kNullGate);
  net.set_fanin(Pin{po, 0}, buf);
  (void)out_r;

  reextract_region(part, net, seeds_for(net, {buf, right, po}));
  expect_matches_fresh(part, net, "recycled id in clean region");
  EXPECT_GE(part.sg_of_gate[buf], 0);
}

TEST(IncrementalGisg, RandomNetworksRandomEditsStayCanonical) {
  // Property test: random pin rewires + gate retypes on random mapped
  // networks, each followed by a region update and a full-extraction
  // differential.
  for (const std::uint64_t seed : {3ull, 11ull, 42ull, 77ull}) {
    Network net = testing::mapped(random_mapped_network(seed));
    GisgPartition part = extract_gisg(net);
    Rng rng(seed * 97 + 1);
    const std::vector<GateId> gates = testing::live_gates(net);
    int edits = 0;
    for (int attempt = 0; attempt < 200 && edits < 25; ++attempt) {
      const GateId g = gates[rng.next_below(gates.size())];
      if (net.is_deleted(g) || !is_logic(net.type(g)) || net.fanin_count(g) == 0) {
        continue;
      }
      if (rng.next_bool()) {
        // Rewire a random in-pin to a random other driver (keep it acyclic:
        // only rewire to a primary input).
        const std::uint32_t pin = rng.next_below(net.fanin_count(g));
        const auto pis = net.primary_inputs();
        const GateId new_driver = pis[rng.next_below(pis.size())];
        const GateId old_driver = net.fanin(g, pin);
        if (new_driver == old_driver) continue;
        net.set_fanin(Pin{g, pin}, new_driver);
        reextract_region(part, net, seeds_for(net, {g, old_driver, new_driver}));
      } else {
        // DeMorgan-style retype (fanin count stays legal).
        const GateType t = net.type(g);
        if (!is_multi_input(t)) continue;
        net.set_type(g, inverted_type(t));
        reextract_region(part, net, seeds_for(net, {g}));
      }
      ++edits;
      expect_matches_fresh(part, net,
                           "seed " + std::to_string(seed) + " edit " +
                               std::to_string(edits));
      if (::testing::Test::HasFailure()) return;
    }
    EXPECT_GT(edits, 0);
  }
}

// --- engine integration ------------------------------------------------------

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

TEST(IncrementalGisg, EngineCommitStreamStaysCanonical) {
  // Commit a stream of gainful swaps through the engine with the
  // extract-diff self-check armed: every incremental splice is cross-
  // checked against a fresh full extraction inside partition().
  EngineFixture f;
  Sta sta(f.net, f.lib, f.pl);
  RewireEngine engine(f.net, f.pl, f.lib, sta);
  engine.set_extract_diff(true);

  const Network golden = f.net.clone();
  int commits = 0;
  for (int round = 0; round < 8; ++round) {
    const GisgPartition& part = engine.partition();
    const auto cands = enumerate_all_swaps(part, f.net);
    const double base = sta.critical_delay();
    const SwapCandidate* best = nullptr;
    double best_gain = 1e-9;
    for (const SwapCandidate& c : cands) {
      const EngineObjective obj = engine.probe(EngineMove::swap(c));
      if (base - obj.critical > best_gain) {
        best_gain = base - obj.critical;
        best = &c;
      }
    }
    if (best == nullptr) break;
    ASSERT_NO_THROW(engine.commit(EngineMove::swap(*best)));
    ++commits;
    // Materialize (runs the differential); then the next round enumerates
    // from the spliced partition.
    engine.partition();
  }
  EXPECT_GT(commits, 0);
  EXPECT_TRUE(check_equivalence(golden, f.net).equivalent);
  const PartitionStats& ps = engine.partition_stats();
  EXPECT_EQ(ps.full_rebuilds, 1u);
  EXPECT_GT(ps.incremental_updates, 0u);
  EXPECT_GT(ps.sgs_reused, ps.sgs_reextracted)
      << "incremental updates re-extracted most of the network";
}

TEST(IncrementalGisg, ResizeCommitsLeaveThePartitionUntouched) {
  EngineFixture f;
  Sta sta(f.net, f.lib, f.pl);
  RewireEngine engine(f.net, f.pl, f.lib, sta);
  const std::uint64_t gen = engine.partition().generation;

  int resizes = 0;
  for (const GateId g : f.net.gates()) {
    if (!is_logic(f.net.type(g)) || f.net.cell(g) < 0) continue;
    const auto cands = resize_candidates(f.net, f.lib, g);
    if (cands.empty()) continue;
    engine.commit(EngineMove::resize(g, cands.front()));
    if (++resizes == 5) break;
  }
  ASSERT_GT(resizes, 0);
  // Cell bindings are invisible to extraction: no update, no rebuild.
  EXPECT_EQ(engine.partition().generation, gen);
  EXPECT_EQ(engine.partition_stats().incremental_updates, 0u);
  EXPECT_EQ(engine.partition_stats().full_rebuilds, 1u);
}

TEST(IncrementalGisg, DanglingInverterRemovalForcesFullRebuild) {
  // Gate deletion happens outside the engine's commit stream; the caller
  // must invalidate. The next partition() is a full rebuild and the result
  // matches a fresh extraction.
  EngineFixture f("alu2");
  Sta sta(f.net, f.lib, f.pl);
  RewireEngine engine(f.net, f.pl, f.lib, sta);

  // Commit inverting swaps (each round re-enumerates from the spliced
  // partition) until one leaves a dangling inverter behind.
  int commits = 0;
  std::size_t removed = 0;
  for (int round = 0; round < 24 && removed == 0; ++round) {
    const auto cands = enumerate_all_swaps(engine.partition(), f.net);
    const SwapCandidate* pick = nullptr;
    for (const SwapCandidate& c : cands) {
      if (c.polarity == SwapPolarity::Inverting) {
        pick = &c;
        break;
      }
    }
    if (pick == nullptr) break;
    engine.commit(EngineMove::swap(*pick));
    ++commits;
    removed = remove_dangling_inverters(f.net);
  }
  ASSERT_GT(commits, 0);
  if (removed == 0) GTEST_SKIP() << "no dangling inverter produced";

  engine.invalidate_partition();
  const std::uint64_t rebuilds_before = engine.partition_stats().full_rebuilds;
  const GisgPartition& part = engine.partition();
  EXPECT_EQ(engine.partition_stats().full_rebuilds, rebuilds_before + 1);
  expect_matches_fresh(part, f.net, "after remove_dangling_inverters");
}

// --- optimizer / flow level --------------------------------------------------

TEST(IncrementalGisgSlowFlow, ExtractDiffHoldsThroughFullFlows) {
  // Unit differential on the acceptance circuits: the whole gsg+GS flow
  // with the per-commit incremental-vs-full cross-check armed.
  const CellLibrary& lib = lib035();
  for (const std::string name : {"alu2", "c432", "c499"}) {
    FlowOptions fopt;
    fopt.opt.extract_diff = true;
    const PreparedCircuit prepared = prepare_benchmark(name, lib, fopt);
    const ModeRun run = run_mode(prepared, lib, OptMode::GsgPlusGS, fopt);
    EXPECT_TRUE(run.verified) << name;
    const MetricsRegistry& m = run.result.metrics;
    EXPECT_EQ(m.counter("partition.full_rebuilds"), 1u) << name;
    EXPECT_GT(m.counter("partition.sgs_reused"), m.counter("partition.sgs_reextracted"))
        << name;
    EXPECT_GT(m.counter("partition.groups_reused"), 0u) << name;
  }
}

TEST(IncrementalGisgSlowFlow, IncrementalAndFullRebuildFlowsMatchByteForByte) {
  // Flow-level parity: incremental maintenance changes cost, not results —
  // the committed move stream and final netlist are identical with the
  // subsystem on or off.
  const CellLibrary& lib = lib035();
  for (const std::string name : {"alu2", "c432"}) {
    FlowOptions fopt;
    const PreparedCircuit prepared = prepare_benchmark(name, lib, fopt);
    EXPECT_EQ(check_exactness(prepared, lib, OptMode::GsgPlusGS, fopt, 1,
                              exactness_oracles({"full-extraction"})),
              "")
        << name;
  }
}

TEST(IncrementalGisgSlowFlow, FullExtractionOnFourWorkersDeltaSyncsTheSameNetlist) {
  // With incremental maintenance off, the replica-sync journal still runs:
  // replicas delta-sync, and the netlist equals the one-worker run's and
  // the clone-synced run's.
  const CellLibrary& lib = lib035();
  FlowOptions fopt;
  fopt.opt.incremental_extraction = false;
  const PreparedCircuit prepared = prepare_benchmark("c499", lib, fopt);
  std::uint64_t delta_syncs = 0, full_syncs = 0;
  EXPECT_EQ(check_exactness(prepared, lib, OptMode::GsgPlusGS, fopt, 4,
                            exactness_oracles({"threads", "clone-sync"}),
                            [&](const ExactnessOracle* row, const ModeRun& run) {
                              if (row == nullptr || row->name != "threads") return;
                              delta_syncs = run.result.metrics.counter("sync.delta_syncs");
                              full_syncs = run.result.metrics.counter("sync.full_syncs");
                            }),
            "");
  EXPECT_GT(delta_syncs, full_syncs);
}

TEST(IncrementalGisgSlowFlow, ParanoidFlowProvesSameMovesWithIncrementalPartition) {
  // Proof-session invalidation and partition dirt must stay in lockstep:
  // a paranoid flow with incremental maintenance proves the same move set
  // move-for-move as one with full rebuilds.
  const CellLibrary& lib = lib035();
  FlowOptions fopt;
  fopt.opt.paranoid = true;
  const PreparedCircuit prepared = prepare_benchmark("c432", lib, fopt);

  FlowOptions inc = fopt;
  inc.opt.incremental_extraction = true;
  inc.opt.extract_diff = true;
  const ModeRun run_inc = run_mode(prepared, lib, OptMode::GsgPlusGS, inc);
  FlowOptions full = fopt;
  full.opt.incremental_extraction = false;
  const ModeRun run_full = run_mode(prepared, lib, OptMode::GsgPlusGS, full);

  EXPECT_TRUE(run_inc.verified);
  EXPECT_TRUE(run_full.verified);
  EXPECT_EQ(run_inc.result.moves_proved, run_full.result.moves_proved);
  EXPECT_EQ(run_inc.result.paranoid_verdicts, run_full.result.paranoid_verdicts);
}

}  // namespace
}  // namespace rapids
