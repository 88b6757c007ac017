// End-to-end flow: generate -> map -> place -> optimize -> verify -> row.
#include <gtest/gtest.h>

#include "flow/flow.hpp"
#include "test_helpers.hpp"

namespace rapids {
namespace {

using rapids::testing::lib035;

FlowOptions fast_flow() {
  FlowOptions o;
  o.placer.effort = 1.0;
  o.placer.num_temps = 6;
  o.opt.max_iterations = 2;
  return o;
}

TEST(Flow, PrepareBenchmarkProducesTimedPlacement) {
  const PreparedCircuit p = prepare_benchmark("c432", lib035(), fast_flow());
  EXPECT_EQ(p.name, "c432");
  EXPECT_GT(p.mapped.num_logic_gates(), 100u);
  EXPECT_GT(p.initial_delay, 0.0);
  EXPECT_GT(p.initial_area, 0.0);
  p.mapped.for_each_gate([&](GateId g) {
    EXPECT_TRUE(p.placement.is_placed(g)) << p.mapped.name(g);
  });
}

TEST(Flow, PrepareCircuitRecordsSetupStageTimes) {
  // The setup stages' wall times reach the session's metrics without a
  // tracer, so --metrics-json and serve job metrics show each stage.
  SessionContext session("setup");
  prepare_benchmark("c432", lib035(),
                    rapids::testing::session_flow_options(session, fast_flow()));
  for (const char* gauge : {"time.map_s", "time.place_s", "time.initial_sta_s"}) {
    EXPECT_GT(session.metrics().gauge(gauge), 0.0) << gauge;  // 0 when unset
  }
}

TEST(Flow, RunModeVerifiesEquivalence) {
  const PreparedCircuit p = prepare_benchmark("alu2", lib035(), fast_flow());
  for (const OptMode mode : {OptMode::Gsg, OptMode::GateSizing, OptMode::GsgPlusGS}) {
    const ModeRun run = run_mode(p, lib035(), mode, fast_flow());
    EXPECT_TRUE(run.verified) << to_string(mode);
    EXPECT_LE(run.result.final_delay, run.result.initial_delay + 1e-6)
        << to_string(mode);
  }
}

TEST(Flow, ModesStartFromIdenticalBaseline) {
  const PreparedCircuit p = prepare_benchmark("c499", lib035(), fast_flow());
  const ModeRun a = run_mode(p, lib035(), OptMode::Gsg, fast_flow());
  const ModeRun b = run_mode(p, lib035(), OptMode::GateSizing, fast_flow());
  EXPECT_NEAR(a.result.initial_delay, b.result.initial_delay, 1e-9);
  EXPECT_NEAR(a.result.initial_area, b.result.initial_area, 1e-9);
}

TEST(Flow, Table1RowFieldsPopulated) {
  const PreparedCircuit p = prepare_benchmark("c432", lib035(), fast_flow());
  const BenchmarkRow row = produce_table1_row(p, lib035(), fast_flow());
  EXPECT_EQ(row.name, "c432");
  EXPECT_GT(row.num_gates, 0u);
  EXPECT_GT(row.init_delay_ns, 0.0);
  EXPECT_GE(row.gsg_improve_pct, 0.0);
  EXPECT_GE(row.gs_improve_pct, 0.0);
  EXPECT_GE(row.gsg_gs_improve_pct, 0.0);
  EXPECT_GT(row.coverage_pct, 0.0);
  EXPECT_GE(row.max_sg_inputs, 2);
}

TEST(Flow, TimingDrivenPlacementNeverWorseThanBaseline) {
  const PreparedCircuit p = prepare_benchmark("c1908", lib035(), fast_flow());
  PlacerOptions popt = fast_flow().placer;
  const auto [pl, delay] = place_timing_driven(p.mapped, lib035(), popt, 3);
  Sta baseline(p.mapped, lib035(), place(p.mapped, lib035(), popt));
  EXPECT_LE(delay, baseline.critical_delay() + 1e-9);
  // Result is a legal placement.
  EXPECT_TRUE(check_legal(p.mapped, lib035(), pl).empty());
}

TEST(Flow, CustomNetworkThroughPreparedCircuit) {
  NetworkBuilder b;
  std::vector<GateId> xs;
  for (int i = 0; i < 8; ++i) xs.push_back(b.input("x" + std::to_string(i)));
  b.output("f", b.tree(GateType::And, xs, 2));
  b.output("g", b.tree(GateType::Xor, xs, 2));
  const Network src = b.take();

  const PreparedCircuit p = prepare_circuit("custom", src, lib035(), fast_flow());
  const ModeRun run = run_mode(p, lib035(), OptMode::GsgPlusGS, fast_flow());
  EXPECT_TRUE(run.verified);
}

}  // namespace
}  // namespace rapids
