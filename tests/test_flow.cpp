// End-to-end flow: generate -> map -> place -> optimize -> verify -> row.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "flow/flow.hpp"
#include "test_helpers.hpp"
#include "util/json_lite.hpp"

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

TEST(Flow, StageTimersCoverReadVerifyAndWrite) {
  // run_mode times verification (the reference clone included); a flow
  // job (`rapids flow` or a served job) also times the circuit read and
  // the BLIF write, and writes the BLIF before its metrics file.
  SessionContext session("verify");
  const FlowOptions options = rapids::testing::session_flow_options(session, fast_flow());
  (void)run_mode(prepare_benchmark("c432", lib035(), options), lib035(),
                 OptMode::GsgPlusGS, options);
  EXPECT_GT(session.metrics().gauge("time.verify_s"), 0.0);

  const std::string dir = ::testing::TempDir();
  SessionContext stage("stage");
  (void)run_flow_job(parse_flow_args({"c432", "--effort", "1", "--iters", "1", "--out",
                                      dir + "stage.blif", "--metrics-json",
                                      dir + "stage.metrics.json"}),
                     lib035(), stage);
  std::ifstream is(dir + "stage.metrics.json");
  std::ostringstream text;
  text << is.rdbuf();
  const JsonValue gauges = *parse_json(text.str()).find("gauges");
  for (const char* gauge :
       {"time.read_s", "time.map_s", "time.verify_s", "time.write_s"}) {
    ASSERT_NE(gauges.find(gauge), nullptr) << gauge;
    EXPECT_GT(gauges.find(gauge)->as_number(), 0.0) << gauge;
  }
}

TEST(Flow, ArgsRejectMalformedValues) {
  // Whole tokens only, and the error names the flag. Each of these used to
  // run (--iters 1x as 1 iteration, --threads 2abc on 2 threads) or die
  // with a bare "stoull".
  const auto rejects = [](const std::vector<std::string>& args, const std::string& what) {
    try {
      (void)parse_flow_args(args);
      ADD_FAILURE() << what << ": accepted";
    } catch (const InputError& e) {
      EXPECT_NE(std::string(e.what()).find(what), std::string::npos) << e.what();
    }
  };
  rejects({"c432", "--iters", "1x"}, "--iters");
  rejects({"c432", "--iters", "-1"}, "--iters");
  rejects({"c432", "--seed", "abc"}, "--seed");
  rejects({"c432", "--seed", "-1"}, "--seed");
  rejects({"c432", "--threads", "2abc"}, "--threads");
  rejects({"c432", "--threads", "0"}, "--threads");
  rejects({"c432", "--threads", "100000"}, "--threads");
  rejects({"c432", "--effort", "2.5x"}, "--effort");
  rejects({"c432", "--effort", ""}, "--effort");
  rejects({"c432", "--mode", "fast"}, "unknown mode");
  rejects({"c432", "--seed"}, "missing value after --seed");
  rejects({"c432", "--frobnicate"}, "unknown flag");
  rejects({"c432", "c499"}, "more than one circuit");
  rejects({"--paranoid"}, "no circuit");

  const FlowJob job = parse_flow_args(
      {"--seed", "18446744073709551615", "gen:300:2", "--effort", "nan", "--iters", "0"});
  EXPECT_EQ(job.target, "gen:300:2");
  EXPECT_EQ(job.options.placer.seed, 18446744073709551615ull);
  EXPECT_EQ(job.options.opt.max_iterations, 0);
  // load_circuit's gen: spec reads its numbers the same way.
  EXPECT_THROW((void)load_circuit("gen:12x"), InputError);
  EXPECT_THROW((void)load_circuit("gen:300:-2"), InputError);
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
