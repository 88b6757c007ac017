// Optimizer invariants for gsg / GS / gsg+GS.
#include <gtest/gtest.h>

#include <sstream>

#include "gen/suite.hpp"
#include "mapping/mapper.hpp"
#include "netlist/validate.hpp"
#include "opt/optimizer.hpp"
#include "place/placer.hpp"
#include "opt/metrics.hpp"
#include "sizing/sizing.hpp"
#include "sym/gisg.hpp"
#include "test_helpers.hpp"
#include "verify/equivalence.hpp"

namespace rapids {
namespace {

using rapids::testing::lib035;
using rapids::testing::mapped;
using rapids::testing::random_mapped_network;

struct Prepared {
  Network net;
  Placement pl;
};

Prepared prep(std::uint64_t seed, int gates = 120) {
  Prepared p;
  p.net = mapped(random_mapped_network(seed, 14, gates, 10));
  PlacerOptions popt;
  popt.effort = 2.0;
  popt.num_temps = 8;
  popt.seed = seed;
  p.pl = place(p.net, lib035(), popt);
  return p;
}

OptimizerOptions fast(OptMode mode) {
  OptimizerOptions o;
  o.mode = mode;
  o.max_iterations = 3;
  return o;
}

TEST(Sizing, ResizeCandidatesExcludeCurrent) {
  const Prepared p = prep(1);
  p.net.for_each_gate([&](GateId g) {
    if (!is_logic(p.net.type(g)) || p.net.cell(g) < 0) return;
    const auto cands = resize_candidates(p.net, lib035(), g);
    EXPECT_EQ(cands.size(), 3u);  // 4 drives - current
    for (const int c : cands) EXPECT_NE(c, p.net.cell(g));
  });
}

TEST(Sizing, NetworkAreaSumsCells) {
  const Prepared p = prep(2);
  double manual = 0;
  p.net.for_each_gate([&](GateId g) { manual += gate_area(p.net, lib035(), g); });
  EXPECT_DOUBLE_EQ(network_area(p.net, lib035()), manual);
}

class OptimizerInvariants
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

TEST_P(OptimizerInvariants, DelayNeverWorseFunctionPreserved) {
  const OptMode mode = static_cast<OptMode>(std::get<0>(GetParam()));
  const std::uint64_t seed = std::get<1>(GetParam());
  Prepared p = prep(seed);
  const Network golden = p.net.clone();
  const Placement placed_before = p.pl;

  Sta sta(p.net, lib035(), p.pl);
  const OptimizerResult r = optimize(p.net, p.pl, lib035(), sta, fast(mode));
  validate_or_throw(p.net);

  EXPECT_LE(r.final_delay, r.initial_delay + 1e-6);
  EXPECT_TRUE(check_equivalence(golden, p.net).equivalent);

  // Placement perturbation rules: no original cell may move, ever.
  golden.for_each_gate([&](GateId g) {
    if (!placed_before.is_placed(g) || p.net.is_deleted(g)) return;
    EXPECT_EQ(p.pl.at(g).x, placed_before.at(g).x) << golden.name(g);
    EXPECT_EQ(p.pl.at(g).y, placed_before.at(g).y) << golden.name(g);
  });

  if (mode == OptMode::GateSizing) {
    // GS never adds/removes gates.
    EXPECT_EQ(r.swaps_committed, 0);
    EXPECT_EQ(r.inverters_added, 0);
    EXPECT_EQ(p.net.num_gates(), golden.num_gates());
  }
  if (mode == OptMode::Gsg) {
    EXPECT_EQ(r.resizes_committed, 0);
    // gsg: cell bindings of surviving original gates are untouched.
    golden.for_each_gate([&](GateId g) {
      if (!p.net.is_deleted(g)) {
        EXPECT_EQ(p.net.cell(g), golden.cell(g));
      }
    });
  }
}

INSTANTIATE_TEST_SUITE_P(
    ModesAndSeeds, OptimizerInvariants,
    ::testing::Combine(::testing::Values(0, 1, 2),  // Gsg, GateSizing, GsgPlusGS
                       ::testing::Values(11u, 22u, 33u)));

TEST(Optimizer, ReportsSupergateStats) {
  Prepared p = prep(44);
  Sta sta(p.net, lib035(), p.pl);
  const OptimizerResult r = optimize(p.net, p.pl, lib035(), sta, fast(OptMode::Gsg));
  EXPECT_GT(r.coverage, 0.0);
  EXPECT_LE(r.coverage, 1.0);
  EXPECT_GE(r.max_sg_inputs, 2);
  EXPECT_GE(r.iterations, 1);
  EXPECT_GT(r.initial_delay, 0.0);
}

TEST(Optimizer, ImprovementPercentArithmetic) {
  OptimizerResult r;
  r.initial_delay = 10.0;
  r.final_delay = 9.0;
  EXPECT_NEAR(r.improvement_percent(), 10.0, 1e-12);
  r.initial_area = 100.0;
  r.final_area = 98.0;
  EXPECT_NEAR(r.area_delta_percent(), -2.0, 1e-12);
}

TEST(Optimizer, GsgPlusGsSizesOnlyUncoveredGates) {
  // Contract from the paper: gates covered by non-trivial supergates are
  // rewired, the rest sized. We verify no resize touched a covered gate by
  // re-deriving coverage on the ORIGINAL netlist and checking bindings.
  Prepared p = prep(55);
  const Network golden = p.net.clone();
  const GisgPartition part = extract_gisg(golden);
  std::vector<bool> covered(golden.id_bound(), false);
  for (const SuperGate& sg : part.sgs) {
    if (sg.is_trivial()) continue;
    for (const GateId g : sg.covered) covered[g] = true;
  }
  Sta sta(p.net, lib035(), p.pl);
  optimize(p.net, p.pl, lib035(), sta, fast(OptMode::GsgPlusGS));
  golden.for_each_gate([&](GateId g) {
    if (g < covered.size() && covered[g] && !p.net.is_deleted(g)) {
      EXPECT_EQ(p.net.cell(g), golden.cell(g)) << "covered gate was resized";
    }
  });
}

TEST(Optimizer, MetricsTableFormatting) {
  std::vector<BenchmarkRow> rows(2);
  rows[0].name = "alu2";
  rows[0].num_gates = 516;
  rows[0].init_delay_ns = 7.6;
  rows[0].gsg_improve_pct = 6.9;
  rows[0].gs_improve_pct = 2.7;
  rows[0].gsg_gs_improve_pct = 9.7;
  rows[1].name = "k2";
  rows[1].gsg_improve_pct = 8.0;
  rows[1].gs_improve_pct = 3.0;
  rows[1].gsg_gs_improve_pct = 10.1;

  const Table1Averages avg = table1_averages(rows);
  EXPECT_NEAR(avg.gsg, (6.9 + 8.0) / 2, 1e-9);
  std::ostringstream os;
  print_table1(rows, os);
  EXPECT_NE(os.str().find("alu2"), std::string::npos);
  EXPECT_NE(os.str().find("ave."), std::string::npos);
}

TEST(Optimizer, LeavesOnlyModeStillSound) {
  Prepared p = prep(66);
  const Network golden = p.net.clone();
  Sta sta(p.net, lib035(), p.pl);
  OptimizerOptions o = fast(OptMode::Gsg);
  o.leaves_only_swaps = true;
  const OptimizerResult r = optimize(p.net, p.pl, lib035(), sta, o);
  EXPECT_LE(r.final_delay, r.initial_delay + 1e-6);
  EXPECT_TRUE(check_equivalence(golden, p.net).equivalent);
}

}  // namespace
}  // namespace rapids
