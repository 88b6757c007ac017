// Bounded-cone damped STA propagation: the slack-margin cutoff must make
// probe cost track the real disturbance (O(1) on an off-critical branch)
// while staying objective-exact — damped and full-cone propagation return
// bit-identical critical delays, PO arrival sums, and (at flow level)
// byte-identical netlists at every thread count.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "flow/flow.hpp"
#include "fuzz/fuzz.hpp"
#include "gen/large.hpp"
#include "netlist/builder.hpp"
#include "test_helpers.hpp"
#include "timing/sta.hpp"

namespace rapids {
namespace {

using rapids::testing::lib035;
using rapids::testing::mapped;
using rapids::testing::random_mapped_network;

Placement grid_placement(const Network& net, double pitch = 40.0) {
  Placement pl(net.id_bound());
  Die die;
  die.width = 2000;
  die.height = 2000;
  die.num_rows = 100;
  pl.set_die(die);
  std::size_t i = 0;
  net.for_each_gate([&](GateId g) {
    pl.set(g, Point{static_cast<double>(i % 40) * pitch,
                    static_cast<double>(i / 40) * pitch});
    ++i;
  });
  return pl;
}

/// Two inverter chains joined by a NAND: a short chain A (the probe target)
/// and a long chain B that owns the critical path, so every A gate carries a
/// large slack margin. `a_out` receives chain A's gate ids in order.
Network two_branch_network(int len_a, int len_b, std::vector<GateId>& a_out) {
  NetworkBuilder b;
  const GateId xa = b.input("xa");
  const GateId xb = b.input("xb");
  GateId cur = xa;
  a_out.clear();
  for (int i = 0; i < len_a; ++i) {
    const GateId inv = b.net().add_gate(GateType::Inv);
    b.net().add_fanin(inv, cur);
    a_out.push_back(inv);
    cur = inv;
  }
  const GateId a_tail = cur;
  cur = xb;
  std::vector<GateId> bs;
  for (int i = 0; i < len_b; ++i) {
    const GateId inv = b.net().add_gate(GateType::Inv);
    b.net().add_fanin(inv, cur);
    bs.push_back(inv);
    cur = inv;
  }
  const GateId join = b.net().add_gate(GateType::Nand);
  b.net().add_fanin(join, a_tail);
  b.net().add_fanin(join, cur);
  b.output("f", join);
  Network net = b.take();
  const int inv1 = lib035().find(GateType::Inv, 1, 1);
  EXPECT_GE(inv1, 0);
  for (const GateId g : a_out) net.set_cell(g, inv1);
  for (const GateId g : bs) net.set_cell(g, inv1);
  const int nand1 = lib035().find(GateType::Nand, 2, 1);
  EXPECT_GE(nand1, 0);
  net.set_cell(join, nand1);
  return net;
}

struct ProbeShape {
  std::uint64_t pops = 0;
  std::uint64_t cutoffs = 0;
  std::uint64_t fallbacks = 0;
  double critical = 0.0;
  double sum_po = 0.0;
};

/// One transactional what-if resize of `victim` to `cell`, propagated with
/// or without damping, rolled back before returning (the engine probe
/// choreography: undo the network edit, then Sta::rollback).
ProbeShape probe_resize(Network& net, Sta& sta, GateId victim, int cell,
                        bool damped) {
  ProbeShape shape;
  const std::uint64_t pops0 = sta.gates_propagated();
  const std::uint64_t cuts0 = sta.damp_cutoffs();
  const std::uint64_t falls0 = sta.damp_fallbacks();
  const int orig = net.cell(victim);
  sta.begin();
  net.set_cell(victim, cell);
  for (const GateId f : net.fanins(victim)) sta.invalidate_net(f);
  sta.touch_gate(victim);
  sta.set_damping_active(damped);
  sta.propagate();
  sta.set_damping_active(false);
  shape.critical = sta.critical_delay();
  shape.sum_po = sta.sum_po_arrival();
  net.set_cell(victim, orig);
  sta.rollback();
  shape.pops = sta.gates_propagated() - pops0;
  shape.cutoffs = sta.damp_cutoffs() - cuts0;
  shape.fallbacks = sta.damp_fallbacks() - falls0;
  return shape;
}

TEST(TimingDamp, OffCriticalProbeVisitsO1NotTheCone) {
  // Slowing one gate in the short chain disturbs the whole downstream cone
  // structurally, but every arrival increase dies under chain B's slack
  // margin: damped propagation must stop right past the seeds while the
  // full-cone walk visits the rest of chain A, the join and the output.
  std::vector<GateId> chain_a;
  Network net = two_branch_network(12, 30, chain_a);
  const Placement pl = grid_placement(net);
  Sta sta(net, lib035(), pl);
  sta.refresh_damping_margins();
  ASSERT_TRUE(sta.margins_valid());

  const GateId victim = chain_a[3];
  const int slow = lib035().find(GateType::Inv, 1, 0);  // weakest drive
  ASSERT_GE(slow, 0);
  ASSERT_NE(slow, net.cell(victim));

  const ProbeShape full = probe_resize(net, sta, victim, slow, /*damped=*/false);
  const ProbeShape damp = probe_resize(net, sta, victim, slow, /*damped=*/true);

  // Objective-exact: bit-identical, not approximately equal.
  EXPECT_EQ(damp.critical, full.critical);
  EXPECT_EQ(damp.sum_po, full.sum_po);
  // The full-cone walk visits the downstream chain; the damped walk is cut
  // off within a couple of gates of the seeds, independent of chain length.
  EXPECT_GT(damp.cutoffs, 0u);
  EXPECT_GE(full.pops, 8u);
  EXPECT_LE(damp.pops, 4u);
}

TEST(TimingDamp, DampedProbeRollbackRestoresExactState) {
  Network net = mapped(random_mapped_network(208, 14, 90, 8));
  const Placement pl = grid_placement(net);
  Sta sta(net, lib035(), pl);
  sta.refresh_damping_margins();
  ASSERT_TRUE(sta.margins_valid());

  const double before = sta.critical_delay();
  std::vector<RiseFall> arr_before;
  net.for_each_gate([&](GateId g) { arr_before.push_back(sta.arrival_rf(g)); });

  // Damp-probe every resizable gate once; each rollback must restore the
  // stored state byte-exactly (suppressed gates stored nothing, so the
  // journal-replay must not need them) and keep the margins valid.
  int probed = 0;
  net.for_each_gate([&](GateId g) {
    if (probed >= 10 || !is_logic(net.type(g)) || net.cell(g) < 0) return;
    const Cell& cell = lib035().cell(net.cell(g));
    const int other = lib035().find(cell.function, cell.num_inputs,
                                    cell.drive_index == 0 ? 3 : 0);
    if (other < 0) return;
    probe_resize(net, sta, g, other, /*damped=*/true);
    ++probed;
  });
  ASSERT_GT(probed, 0);

  EXPECT_TRUE(sta.margins_valid());
  EXPECT_DOUBLE_EQ(sta.critical_delay(), before);
  std::size_t i = 0;
  net.for_each_gate([&](GateId g) {
    EXPECT_EQ(sta.arrival_rf(g), arr_before[i]) << net.name(g);
    ++i;
  });
}

TEST(TimingDamp, DampedProbesMatchFullConeOnRandomNetwork) {
  // Exactness on an irregular network: every probe's objective pair must be
  // bit-identical damped vs full-cone (the engine-level contract the
  // bounded-cone optimization rests on).
  Network net = mapped(random_mapped_network(209, 14, 120, 8));
  const Placement pl = grid_placement(net);
  Sta sta(net, lib035(), pl);
  sta.refresh_damping_margins();

  net.for_each_gate([&](GateId g) {
    if (!is_logic(net.type(g)) || net.cell(g) < 0) return;
    const Cell& cell = lib035().cell(net.cell(g));
    const int other = lib035().find(cell.function, cell.num_inputs,
                                    cell.drive_index == 0 ? 3 : 0);
    if (other < 0) return;
    const ProbeShape full = probe_resize(net, sta, g, other, /*damped=*/false);
    const ProbeShape damp = probe_resize(net, sta, g, other, /*damped=*/true);
    EXPECT_EQ(damp.critical, full.critical) << net.name(g);
    EXPECT_EQ(damp.sum_po, full.sum_po) << net.name(g);
    // A PO-decrease fallback replays the deferred gates undamped, so the
    // damped walk can pop slightly MORE than the plain one on such probes;
    // absent a fallback it must never visit more.
    if (damp.fallbacks == 0) EXPECT_LE(damp.pops, full.pops) << net.name(g);
  });
}

TEST(TimingDamp, DampDiffSelfCheckPassesAndMarginsFollowCommits) {
  Network net = mapped(random_mapped_network(210, 14, 90, 8));
  const Placement pl = grid_placement(net);
  Sta sta(net, lib035(), pl);

  // Margin lifecycle: invalid until refreshed, invalidated by a committing
  // transaction (stored arrivals moved), restored by the next refresh.
  EXPECT_FALSE(sta.margins_valid());
  sta.refresh_damping_margins();
  EXPECT_TRUE(sta.margins_valid());
  EXPECT_EQ(sta.margin_refreshes(), 1u);

  GateId victim = kNullGate;
  int other = -1;
  net.for_each_gate([&](GateId g) {
    if (victim != kNullGate || !is_logic(net.type(g)) || net.cell(g) < 0) return;
    const Cell& cell = lib035().cell(net.cell(g));
    const int cand = lib035().find(cell.function, cell.num_inputs,
                                   cell.drive_index == 0 ? 3 : 0);
    if (cand >= 0 && net.fanout_count(g) >= 2) {
      victim = g;
      other = cand;
    }
  });
  ASSERT_NE(victim, kNullGate);

  // With damp-diff armed, every damped propagation replays its deferred
  // gates undamped and asserts PO-arrival equality — a probe must survive.
  sta.set_damp_diff(true);
  probe_resize(net, sta, victim, other, /*damped=*/true);
  sta.set_damp_diff(false);
  EXPECT_TRUE(sta.margins_valid());  // rollback keeps margins

  sta.begin();
  net.set_cell(victim, other);
  for (const GateId f : net.fanins(victim)) sta.invalidate_net(f);
  sta.touch_gate(victim);
  sta.propagate();
  sta.commit();
  EXPECT_FALSE(sta.margins_valid());  // committed arrivals moved

  sta.refresh_damping_margins();
  EXPECT_TRUE(sta.margins_valid());
  EXPECT_EQ(sta.margin_refreshes(), 2u);
}

// --- flow-level determinism: damp {on,off} x threads {1,4} -------------------

void expect_damp_identity(const char* name, const PreparedCircuit& prepared,
                          const FlowOptions& base) {
  // The oracle rows: threads=4 damped, threads=1 undamped, the per-probe
  // damp-diff self-check on 4 workers and, local to this test, threads=4
  // undamped, each against the damped threads=1 reference.
  std::vector<ExactnessOracle> rows = exactness_oracles({"threads", "undamped", "damp-diff"});
  rows.push_back({"threads-undamped", true, "--no-timing-damp"});
  const std::string failure = check_exactness(
      prepared, lib035(), OptMode::GsgPlusGS, base, 4, rows,
      [&](const ExactnessOracle* row, const ModeRun& run) {
        if (row != nullptr && (row->name == "undamped" || row->name == "threads-undamped")) {
          EXPECT_EQ(run.result.metrics.counter("timing.damp_cutoffs"), 0u) << name;
          EXPECT_EQ(run.result.metrics.counter("timing.margin_refreshes"), 0u) << name;
        }
      });
  EXPECT_EQ(failure, "") << name;
}

TEST(TimingDampFlow, DampOnOffThreadsBitIdenticalOnSmallBenchmarks) {
  FlowOptions base;
  base.placer.effort = 1.0;
  base.placer.num_temps = 4;
  base.opt.max_iterations = 2;
  base.verify = false;
  for (const char* name : {"alu2", "c432"}) {
    const PreparedCircuit prepared = prepare_benchmark(name, lib035(), base);
    expect_damp_identity(name, prepared, base);
  }
}

TEST(TimingDampFlowSlow, DampOnOffThreadsBitIdenticalOnLargeBenchmarks) {
  FlowOptions base;
  base.placer.effort = 1.0;
  base.placer.num_temps = 4;
  base.opt.max_iterations = 2;
  base.verify = false;
  for (const char* name : {"c499", "c6288"}) {
    const PreparedCircuit prepared = prepare_benchmark(name, lib035(), base);
    expect_damp_identity(name, prepared, base);
  }
}

TEST(TimingDampFlowSlow, DampOnOffThreadsBitIdenticalOnGeneratedCircuit) {
  LargeCircuitOptions lopt;
  lopt.target_gates = 10000;
  lopt.seed = 8;
  lopt.num_inputs = 96;
  const Network src = make_large_circuit(lopt);

  FlowOptions base;
  base.placer.effort = 1.0;
  base.placer.num_temps = 4;
  base.opt.max_iterations = 1;
  base.verify = false;
  const PreparedCircuit prepared = prepare_circuit("gen10000", src, lib035(), base);
  expect_damp_identity("gen10000", prepared, base);
}

}  // namespace
}  // namespace rapids
