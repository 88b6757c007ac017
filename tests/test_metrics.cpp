// The counter path: stat struct field lists -> OptimizerResult::metrics ->
// session registry -> metrics JSON. Pins the key set a flow writes and
// checks that every named field of every stat struct reaches the registry.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "flow/flow.hpp"
#include "netlist/builder.hpp"
#include "parallel/scheduler.hpp"
#include "session/session.hpp"
#include "test_helpers.hpp"
#include "trace/metrics.hpp"
#include "util/json_lite.hpp"
#include "util/log.hpp"

namespace rapids {
namespace {

using rapids::testing::lib035;

/// The registry a `rapids flow <circuit> --mode gsg+gs` run collects into
/// its session (everything but the CLI's own read/write timers).
MetricsRegistry flow_metrics(const std::string& circuit, int threads, bool paranoid) {
  SessionContext session("metrics");
  FlowOptions options = rapids::testing::session_flow_options(session);
  options.opt.threads = threads;
  options.opt.paranoid = paranoid;
  PreparedCircuit prepared = prepare_benchmark(circuit, lib035(), options);
  const ModeRun run =
      run_mode(std::move(prepared), lib035(), OptMode::GsgPlusGS, options);
  EXPECT_TRUE(run.verified) << circuit;
  return session.metrics();
}

/// Sorted member names of one section ("counters", "gauges", ...) of the
/// registry's JSON snapshot.
std::vector<std::string> section_keys(const MetricsRegistry& reg, const char* section) {
  std::ostringstream os;
  reg.write_json(os);
  const JsonValue json = parse_json(os.str());
  std::vector<std::string> keys;
  for (const auto& [name, value] : json.find(section)->members()) keys.push_back(name);
  std::sort(keys.begin(), keys.end());
  return keys;
}

std::vector<std::string> sorted_union(std::vector<std::string> a,
                                      const std::vector<std::string>& b) {
  a.insert(a.end(), b.begin(), b.end());
  std::sort(a.begin(), a.end());
  return a;
}

TEST(Metrics, GaugesRoundTripBitForBit) {
  // place_hpwl is gated exactly in BENCH_engine.json, so a written gauge
  // must parse back to the same bits.
  const double values[] = {16068.141303030277, 0.1, 1.0 / 3.0, 2.33152e+06,
                           5e-324, std::numeric_limits<double>::max(), -1234.5678e-9};
  MetricsRegistry reg;
  for (std::size_t i = 0; i < std::size(values); ++i) {
    reg.set_gauge("g" + std::to_string(i), values[i]);
  }
  std::ostringstream os;
  reg.write_json(os);
  const JsonValue json = parse_json(os.str());
  for (std::size_t i = 0; i < std::size(values); ++i) {
    const JsonValue* v = json.find("gauges")->find("g" + std::to_string(i));
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(v->as_number()),
              std::bit_cast<std::uint64_t>(values[i]))
        << values[i];
  }
}

TEST(Metrics, FlowKeySetIsStable) {
  // The counters and gauges a flow wrote before the stat structs named
  // their own fields...
  const std::vector<std::string> kCounters = {
      "engine.candidates_enumerated", "engine.canonicalize_calls",
      "engine.gates_canonicalized", "engine.inverters_added",
      "engine.inverters_removed", "engine.iterations", "engine.probes",
      "engine.pruned_groups_cached", "engine.redundancies_found",
      "engine.resizes_committed", "engine.swaps_committed",
      "partition.full_rebuilds", "partition.gates_reextracted",
      "partition.groups_reused", "partition.incremental_updates",
      "partition.sgs_reextracted", "partition.sgs_reused", "proof.cache_hits",
      "proof.conflicts", "proof.gates_encoded", "proof.inconclusive",
      "proof.moves_proved", "proof.roots_by_sat", "proof.roots_structural",
      "scheduler.accepted", "scheduler.committed", "scheduler.conflicted",
      "scheduler.revalidation_rejects", "scheduler.rounds",
      "scheduler.speculation_hits", "scheduler.speculation_wasted",
      "scheduler.speculative_probes",
      "solver.learned_deleted", "solver.learned_kept", "solver.reduce_dbs",
      "sync.bytes_delta", "sync.bytes_full", "sync.delta_commits",
      "sync.delta_syncs", "sync.full_syncs", "timing.damp_cutoffs",
      "timing.damp_fallbacks", "timing.gates_propagated",
      "timing.margin_refreshes", "timing.probes_pruned"};
  const std::vector<std::string> kGauges = {
      "area.delta_pct", "area.final", "area.initial", "delay.final_ns",
      "delay.improvement_pct", "delay.initial_ns", "rate.probes_per_sec",
      "run.threads", "sg.coverage", "sg.max_inputs", "time.arbitrate_s",
      "time.commit_s", "time.finalize_s", "time.groups_s", "time.initial_sta_s",
      "time.map_s", "time.optimize_s", "time.place_s", "time.probe_s",
      "time.setup_s", "time.sync_s", "time.timing_s", "time.unattributed_s"};
  // ...and the ones added since: raw counters the structs always kept but
  // never exported, and the verify stage timer.
  const std::vector<std::string> kAddedCounters = {
      "engine.pin_swaps_committed",
      "proof.cache_wipes", "proof.entries_invalidated", "proof.moves_checked",
      "proof.recycled_ids_invalidated", "proof.windows_abandoned",
      "proof.windows_kept", "scheduler.arbiter_commits",
      "scheduler.arbiter_probes", "scheduler.worker_probes", "sync.syncs",
      "timing.probes_bounded"};
  const std::vector<std::string> kAddedGauges = {"time.verify_s"};

  for (const auto& [circuit, threads, paranoid] :
       {std::tuple{"c432", 1, false}, std::tuple{"c499", 4, true}}) {
    const MetricsRegistry reg = flow_metrics(circuit, threads, paranoid);
    EXPECT_EQ(section_keys(reg, "counters"), sorted_union(kCounters, kAddedCounters))
        << circuit;
    EXPECT_EQ(section_keys(reg, "gauges"), sorted_union(kGauges, kAddedGauges))
        << circuit;
    EXPECT_EQ(section_keys(reg, "histograms"),
              (std::vector<std::string>{"hist.probe_gain_ns", "hist.proof_conflicts"}))
        << circuit;
  }
}

template <class Stats>
void expect_fields_registered(const MetricsRegistry& reg, const char* what) {
  int fields = 0;
  Stats::for_each_field([&](const auto& field) {
    ++fields;
    EXPECT_TRUE(reg.has_counter(field.name) || reg.has_gauge(field.name))
        << what << ": " << field.name;
  });
  EXPECT_GT(fields, 0) << what;
}

TEST(Metrics, TinyFlowLogsNoPhaseAccountingWarning) {
  // A sub-millisecond optimize is all fixed overhead: its unattributed
  // share passes 5% with no phase missing a timer, so the warning also
  // needs 1 ms unattributed. The gauge is written either way.
  NetworkBuilder b;
  b.output("f", b.and_({b.input("x"), b.input("y")}));
  Logger& logger = Logger::instance();
  const LogLevel old_level = logger.level();
  std::vector<std::string> warnings;
  const Logger::Sink old_sink =
      logger.set_sink([&warnings](LogLevel, const std::string& m) { warnings.push_back(m); });
  logger.set_level(LogLevel::Warning);
  const ModeRun run = run_mode(prepare_circuit("one_gate", b.take(), lib035()), lib035(),
                               OptMode::GsgPlusGS);
  logger.set_level(old_level);
  logger.set_sink(old_sink);  // the one process logger: restore stderr

  EXPECT_TRUE(run.verified);
  EXPECT_TRUE(run.result.metrics.has_gauge("time.unattributed_s"));
  for (const std::string& w : warnings) {
    EXPECT_EQ(w.find("phase accounting"), std::string::npos) << w;
  }
}

TEST(Metrics, EveryNamedFieldReachesTheRegistry) {
  const MetricsRegistry reg = flow_metrics("c499", 2, /*paranoid=*/true);
  expect_fields_registered<EngineStats>(reg, "EngineStats");
  expect_fields_registered<PartitionStats>(reg, "PartitionStats");
  expect_fields_registered<ReplicaSyncStats>(reg, "ReplicaSyncStats");
  expect_fields_registered<sat::ProofSessionStats>(reg, "ProofSessionStats");
  expect_fields_registered<SchedulerStats>(reg, "SchedulerStats");
  // A paranoid parallel run exercises the paths behind the names, too.
  for (const char* name : {"scheduler.worker_probes", "scheduler.arbiter_probes",
                           "sync.syncs", "proof.moves_checked"}) {
    EXPECT_GT(reg.counter(name), 0u) << name;
  }
}

TEST(Metrics, FieldListDerivesArithmeticAndExport) {
  ReplicaSyncStats a;
  a.syncs = 3;
  a.bytes_delta = 100;
  a.seconds = 0.5;
  ReplicaSyncStats b;
  b.syncs = 1;
  b.bytes_delta = 40;
  b.seconds = 0.25;
  a += b;
  EXPECT_EQ(a.syncs, 4u);
  EXPECT_EQ(a.bytes_delta, 140u);
  EXPECT_DOUBLE_EQ(a.seconds, 0.75);

  // A harvest window is the gain since the last harvest.
  ReplicaSyncStats harvested = b;
  const ReplicaSyncStats window = ReplicaSyncStats::take_window(a, harvested);
  EXPECT_EQ(window.syncs, 3u);
  EXPECT_EQ(window.bytes_delta, 100u);
  EXPECT_EQ(harvested.syncs, 4u);

  // Counters add into the registry; seconds set a gauge.
  MetricsRegistry reg;
  window.export_to(reg);
  window.export_to(reg);
  EXPECT_EQ(reg.counter("sync.syncs"), 6u);
  EXPECT_EQ(reg.counter("sync.bytes_delta"), 200u);
  EXPECT_FALSE(reg.has_counter("time.sync_s"));
  EXPECT_DOUBLE_EQ(reg.gauge("time.sync_s"), window.seconds);
}

}  // namespace
}  // namespace rapids
