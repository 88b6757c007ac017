// Flight recorder + metrics + provenance + bench-diff: ring-buffer
// semantics, Chrome trace-event schema, registry snapshot/merge,
// committed-chain resolution, regression thresholds — and the contract
// that matters most: observation changes NOTHING (tracing on/off and
// threads 1/4 all produce byte-identical netlists).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "flow/flow.hpp"
#include "io/blif_writer.hpp"
#include "session/session.hpp"
#include "trace/bench_diff.hpp"
#include "trace/metrics.hpp"
#include "trace/provenance.hpp"
#include "trace/trace.hpp"
#include "util/assert.hpp"
#include "util/json_lite.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"
#include "test_helpers.hpp"

namespace rapids {
namespace {

using rapids::testing::lib035;
using rapids::testing::session_flow_options;

// --- histogram percentiles ---------------------------------------------------

TEST(Histogram, PercentilesOnUniformData) {
  Histogram h(1e-3, 1e3, 256);
  for (int i = 1; i <= 1000; ++i) h.add(static_cast<double>(i) / 10.0);  // 0.1..100
  EXPECT_EQ(h.count(), 1000);
  // Log-bucketed estimates: generous tolerance, but the ordering and rough
  // magnitude must hold.
  EXPECT_NEAR(h.percentile(0.5), 50.0, 10.0);
  EXPECT_NEAR(h.percentile(0.9), 90.0, 10.0);
  EXPECT_GT(h.p99(), h.p90());
  EXPECT_GT(h.p90(), h.p50());
  // Percentiles are clamped to the observed range.
  EXPECT_GE(h.p50(), h.stats().min());
  EXPECT_LE(h.p99(), h.stats().max());
}

TEST(Histogram, PercentilesMatchSortedSampleOracle) {
  // Positive samples spread over six decades. The estimate for quantile q
  // is the midpoint of the bucket holding the sample of rank ceil(q * n),
  // so it must sit within one bucket width (in log space) of that sample.
  Histogram h;  // default config: the one the flow's gain histogram uses
  std::vector<double> samples;
  Rng rng(2024);
  for (int i = 0; i < 5000; ++i) {
    const double x = std::pow(10.0, rng.next_double() * 6.0 - 4.0);  // 1e-4..1e2
    samples.push_back(x);
    h.add(x);
  }
  std::sort(samples.begin(), samples.end());
  const double log_bucket = (std::log(h.hi()) - std::log(h.lo())) / h.buckets();
  for (const double q : {0.50, 0.90, 0.99}) {
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(samples.size())));
    const double oracle = samples[rank - 1];
    EXPECT_LE(std::abs(std::log(h.percentile(q)) - std::log(oracle)), log_bucket)
        << "q=" << q << " estimate=" << h.percentile(q) << " oracle=" << oracle;
  }
  EXPECT_EQ(h.p50(), h.percentile(0.50));
  EXPECT_EQ(h.p90(), h.percentile(0.90));
  EXPECT_EQ(h.p99(), h.percentile(0.99));
}

TEST(Histogram, UnderflowAndOverflowClampToObservedExtremes) {
  Histogram h(1.0, 100.0, 8);
  h.add(0.0);       // underflow (also catches negatives)
  h.add(-5.0);      // underflow
  h.add(1e9);       // overflow
  EXPECT_EQ(h.count(), 3);
  EXPECT_EQ(h.percentile(0.0), -5.0);  // min clamp
  EXPECT_EQ(h.percentile(1.0), 1e9);   // max clamp
}

TEST(Histogram, MergeEqualsCombinedStream) {
  Histogram a, b, both;
  for (int i = 1; i <= 50; ++i) {
    a.add(i * 0.5);
    both.add(i * 0.5);
  }
  for (int i = 1; i <= 50; ++i) {
    b.add(i * 2.0);
    both.add(i * 2.0);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), both.count());
  EXPECT_DOUBLE_EQ(a.percentile(0.5), both.percentile(0.5));
  EXPECT_DOUBLE_EQ(a.percentile(0.99), both.percentile(0.99));
  EXPECT_DOUBLE_EQ(a.stats().min(), both.stats().min());
  EXPECT_DOUBLE_EQ(a.stats().max(), both.stats().max());
}

TEST(Histogram, ToStringMentionsPercentiles) {
  Histogram h;
  h.add(1.0);
  h.add(2.0);
  const std::string s = h.to_string();
  EXPECT_NE(s.find("p50"), std::string::npos);
  EXPECT_NE(s.find("p99"), std::string::npos);
}

// --- json_lite ---------------------------------------------------------------

TEST(JsonLite, ParsesNestedDocument) {
  const JsonValue v = parse_json(
      R"({"a": 1.5, "b": [1, 2, {"c": true}], "s": "he\"llo\n", "n": null})");
  ASSERT_TRUE(v.is_object());
  EXPECT_DOUBLE_EQ(v.find("a")->as_number(), 1.5);
  ASSERT_TRUE(v.find("b")->is_array());
  EXPECT_EQ(v.find("b")->items().size(), 3u);
  EXPECT_EQ(v.find("s")->as_string(), "he\"llo\n");
  EXPECT_TRUE(v.find("n")->is_null());
}

TEST(JsonLite, RejectsMalformedInput) {
  EXPECT_THROW(parse_json("{"), InputError);
  EXPECT_THROW(parse_json("{\"a\": }"), InputError);
  EXPECT_THROW(parse_json("[1, 2,]"), InputError);
  EXPECT_THROW(parse_json("{\"a\": 1} trailing"), InputError);
}

TEST(JsonLite, FlattenProjectsNumericLeaves) {
  const auto flat = flatten_numeric(
      parse_json(R"({"x": {"y": 2, "s": "skip"}, "arr": [10, 20], "b": true})"));
  EXPECT_DOUBLE_EQ(flat.at("x.y"), 2.0);
  EXPECT_DOUBLE_EQ(flat.at("arr.0"), 10.0);
  EXPECT_DOUBLE_EQ(flat.at("arr.1"), 20.0);
  EXPECT_DOUBLE_EQ(flat.at("b"), 1.0);
  EXPECT_EQ(flat.count("x.s"), 0u);
}

// --- metrics registry --------------------------------------------------------

TEST(MetricsRegistry, CountersAddGaugesOverwriteHistogramsMerge) {
  MetricsRegistry a;
  a.add_counter("engine.probes", 10);
  a.add_counter("engine.probes", 5);
  a.set_gauge("delay.final_ns", 3.0);
  Histogram h;
  h.add(1.0);
  a.add_histogram("hist.gain", h);

  MetricsRegistry b;
  b.add_counter("engine.probes", 100);
  b.set_gauge("delay.final_ns", 2.5);
  Histogram h2;
  h2.add(4.0);
  b.add_histogram("hist.gain", h2);

  a.merge(b);
  EXPECT_EQ(a.counter("engine.probes"), 115u);
  EXPECT_DOUBLE_EQ(a.gauge("delay.final_ns"), 2.5);
  ASSERT_NE(a.histogram("hist.gain"), nullptr);
  EXPECT_EQ(a.histogram("hist.gain")->count(), 2);
}

TEST(MetricsRegistry, JsonSnapshotRoundTripsThroughJsonLite) {
  MetricsRegistry reg;
  reg.set_label("circuit", "c499");
  reg.add_counter("scheduler.rounds", 7);
  reg.set_gauge("time.optimize_s", 1.25);
  Histogram h;
  for (int i = 1; i <= 10; ++i) h.add(static_cast<double>(i));
  reg.add_histogram("hist.probe_gain_ns", h);
  reg.add_histogram("hist.proof_conflicts", Histogram{});

  std::ostringstream os;
  reg.write_json(os);
  const JsonValue v = parse_json(os.str());
  EXPECT_EQ(v.find("schema")->as_string(), "rapids-metrics-v1");
  EXPECT_EQ(v.find("labels")->find("circuit")->as_string(), "c499");
  EXPECT_DOUBLE_EQ(v.find("counters")->find("scheduler.rounds")->as_number(), 7.0);
  EXPECT_DOUBLE_EQ(v.find("gauges")->find("time.optimize_s")->as_number(), 1.25);
  const JsonValue* hist = v.find("histograms")->find("hist.probe_gain_ns");
  ASSERT_NE(hist, nullptr);
  EXPECT_DOUBLE_EQ(hist->find("count")->as_number(), 10.0);
  EXPECT_GT(hist->find("p99")->as_number(), hist->find("p50")->as_number());
  // No sample, no statistic: an empty histogram writes its count alone.
  const JsonValue* empty = v.find("histograms")->find("hist.proof_conflicts");
  ASSERT_NE(empty, nullptr);
  ASSERT_EQ(empty->members().size(), 1u);
  EXPECT_DOUBLE_EQ(empty->find("count")->as_number(), 0.0);
}

// --- tracer ------------------------------------------------------------------

TEST(Tracer, DisabledRecordsNothing) {
  SessionContext session("test");
  Tracer& t = session.tracer();
  t.instant("test", "never");
  { TraceSpan span(t, "test", "never_span"); }
  { TraceSpan span(nullptr, "test", "no_tracer"); }  // outside any session
  EXPECT_FALSE(t.enabled());
  EXPECT_EQ(t.recorded(), 0u);
}

TEST(Tracer, RecordsSpansAndInstantsAndExportsValidJson) {
  SessionContext session("test");
  Tracer& t = session.tracer();
  t.enable(2, 64);
  {
    TraceSpan span(t, "testcat", "outer");
    span.set_arg("k", 42);
    t.instant("testcat", "tick", "n", 7);
  }
  t.disable();
  EXPECT_EQ(t.recorded(), 2u);
  EXPECT_EQ(t.dropped(), 0u);

  std::ostringstream os;
  t.write_chrome_trace(os);
  std::string diag;
  std::vector<std::string> cats;
  std::vector<std::int64_t> tids;
  ASSERT_TRUE(validate_chrome_trace(os.str(), &diag, &cats, &tids)) << diag;
  ASSERT_EQ(cats.size(), 1u);
  EXPECT_EQ(cats[0], "testcat");
}

TEST(Tracer, RingWrapsOverwritingOldestAndCountsDrops) {
  SessionContext session("test");
  Tracer& t = session.tracer();
  t.enable(1, 4);
  for (int i = 0; i < 10; ++i) t.instant("wrap", "e");
  t.disable();
  EXPECT_EQ(t.recorded(), 4u);   // capacity
  EXPECT_EQ(t.dropped(), 6u);    // the oldest six were overwritten
  std::ostringstream os;
  t.write_chrome_trace(os);
  std::string diag;
  ASSERT_TRUE(validate_chrome_trace(os.str(), &diag)) << diag;
  EXPECT_NE(os.str().find("\"dropped_events\":6"), std::string::npos);
}

TEST(Tracer, EventsLandOnTheCurrentWorkersRing) {
  SessionContext session("test");
  Tracer& t = session.tracer();
  t.enable(4, 64);
  ThreadPool pool(4);
  pool.run([&](int w) {
    // The pool scopes worker ids; each worker's instant must land on its
    // own ring => 4 distinct tids in the export.
    t.instant("worker", "hello", "w", w);
  });
  t.disable();
  std::ostringstream os;
  t.write_chrome_trace(os);
  std::string diag;
  std::vector<std::int64_t> tids;
  ASSERT_TRUE(validate_chrome_trace(os.str(), &diag, nullptr, &tids)) << diag;
  EXPECT_EQ(tids.size(), 4u);
}

TEST(TraceSchema, RejectsMalformedTraces) {
  std::string diag;
  EXPECT_FALSE(validate_chrome_trace("not json", &diag));
  EXPECT_FALSE(validate_chrome_trace("{}", &diag));
  EXPECT_NE(diag.find("traceEvents"), std::string::npos);
  EXPECT_FALSE(validate_chrome_trace(
      R"({"traceEvents": [{"name": "x", "ph": "X", "pid": 1, "tid": 0}]})",
      &diag));  // missing cat/ts/dur
  EXPECT_FALSE(validate_chrome_trace(
      R"({"traceEvents": [{"name": "x", "cat": "c", "ph": "Q", "pid": 1,)"
      R"( "tid": 0, "ts": 1}]})",
      &diag));  // bogus phase
  EXPECT_TRUE(validate_chrome_trace(R"({"traceEvents": []})", &diag)) << diag;
}

// --- worker id / log level ---------------------------------------------------

TEST(WorkerId, ScopeSetsAndRestores) {
  EXPECT_EQ(current_worker(), -1);
  {
    WorkerIdScope outer(2);
    EXPECT_EQ(current_worker(), 2);
    {
      WorkerIdScope inner(5);
      EXPECT_EQ(current_worker(), 5);
    }
    EXPECT_EQ(current_worker(), 2);
  }
  EXPECT_EQ(current_worker(), -1);
}

TEST(LogLevel, ParseAcceptsKnownNamesRejectsOthers) {
  EXPECT_EQ(parse_log_level("debug"), LogLevel::Debug);
  EXPECT_EQ(parse_log_level("info"), LogLevel::Info);
  EXPECT_EQ(parse_log_level("warn"), LogLevel::Warning);
  EXPECT_EQ(parse_log_level("warning"), LogLevel::Warning);
  EXPECT_EQ(parse_log_level("error"), LogLevel::Error);
  EXPECT_EQ(parse_log_level("off"), LogLevel::Off);
  EXPECT_THROW(parse_log_level("verbose"), InputError);
}

// --- provenance --------------------------------------------------------------

TEST(Provenance, MoveIdPacksAndUnpacks) {
  const std::uint64_t id = make_move_id(123456, 789, 42);
  EXPECT_EQ(move_id_round(id), 123456u);
  EXPECT_EQ(move_id_group(id), 789);
  EXPECT_EQ(move_id_index(id), 42);
}

TEST(Provenance, ResolvesWellFormedChains) {
  SessionContext session("test");
  ProvenanceLog& log = session.provenance();
  log.enable();
  const std::uint64_t a = make_move_id(1, 0, 3);
  const std::uint64_t b = make_move_id(1, 1, 0);
  const std::uint64_t b2 = make_move_id(1, 1, 2);  // fallback from b's group
  log.record(a, ProvenanceStage::ProbeWin, 0.5);
  log.record(b, ProvenanceStage::ProbeWin, 0.2);
  log.record(a, ProvenanceStage::Committed, 0.5);
  log.record(b2, ProvenanceStage::FallbackChosen, 0.1);
  log.record(b2, ProvenanceStage::Committed, 0.1);
  std::string diag;
  EXPECT_EQ(log.resolve_committed_chains(&diag), 2) << diag;
  log.disable();
}

TEST(Provenance, DetectsOrphanCommit) {
  SessionContext session("test");
  ProvenanceLog& log = session.provenance();
  log.enable();
  log.record(make_move_id(3, 2, 1), ProvenanceStage::Committed, 1.0);
  std::string diag;
  EXPECT_EQ(log.resolve_committed_chains(&diag), -1);
  EXPECT_NE(diag.find("committed"), std::string::npos);
  log.disable();
}

TEST(Provenance, JsonDumpParsesAndNamesStages) {
  SessionContext session("test");
  ProvenanceLog& log = session.provenance();
  log.enable();
  const std::uint64_t id = make_move_id(2, 4, 1);
  log.record(id, ProvenanceStage::ProbeWin, 0.25);
  log.record(id, ProvenanceStage::RevalidationReject, 0.0);
  log.disable();
  std::ostringstream os;
  log.write_json(os);
  const JsonValue v = parse_json(os.str());
  const auto& events = v.find("events")->items();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].find("stage")->as_string(), "probe_win");
  EXPECT_EQ(events[1].find("stage")->as_string(), "revalidation_reject");
  EXPECT_DOUBLE_EQ(events[0].find("round")->as_number(), 2.0);
  EXPECT_DOUBLE_EQ(events[0].find("group")->as_number(), 4.0);
}

// --- bench diff --------------------------------------------------------------

TEST(BenchDiff, GlobMatches) {
  EXPECT_TRUE(glob_match("*", "anything.at.all"));
  EXPECT_TRUE(glob_match("time.*", "time.probe_s"));
  EXPECT_FALSE(glob_match("time.*", "rate.probes_per_sec"));
  EXPECT_TRUE(glob_match("*probes_per_sec", "rate.probes_per_sec"));
  EXPECT_TRUE(glob_match("a*c", "abc"));
  EXPECT_FALSE(glob_match("a*c", "abd"));
  EXPECT_TRUE(glob_match("exact", "exact"));
}

TEST(BenchDiff, ParseRuleRejectsGarbage) {
  const DiffRule r = parse_diff_rule("time.*=12.5", true);
  EXPECT_EQ(r.pattern, "time.*");
  EXPECT_DOUBLE_EQ(r.pct, 12.5);
  EXPECT_THROW(parse_diff_rule("no-equals", true), InputError);
  EXPECT_THROW(parse_diff_rule("x=", true), InputError);
  EXPECT_THROW(parse_diff_rule("x=abc", true), InputError);
  EXPECT_THROW(parse_diff_rule("x=-5", true), InputError);
}

TEST(BenchDiff, FlagsRegressionsPastThresholdOnly) {
  const std::string before = R"({"rate": {"probes_per_sec": 100.0},
                                 "time": {"probe_s": 10.0},
                                 "counters": {"committed": 5}})";
  const std::string after = R"({"rate": {"probes_per_sec": 50.0},
                                "time": {"probe_s": 10.5},
                                "counters": {"committed": 5},
                                "counters2": {"brand_new": 1}})";
  std::vector<DiffRule> rules;
  rules.push_back(parse_diff_rule("rate.*=40", /*above=*/false));  // -50% > 40% drop
  rules.push_back(parse_diff_rule("time.*=10", /*above=*/true));   // +5% < 10% ok
  const DiffReport report = diff_metrics_json(before, after, rules);
  EXPECT_EQ(report.violations, 1);
  // New keys are reported, never failed.
  bool saw_new = false;
  for (const DiffEntry& e : report.entries) {
    if (e.key == "counters2.brand_new") {
      saw_new = true;
      EXPECT_FALSE(e.in_before);
      EXPECT_EQ(e.violated_rule, -1);
    }
  }
  EXPECT_TRUE(saw_new);
  std::ostringstream os;
  write_diff_report(os, report, rules, /*only_changed=*/true);
  EXPECT_NE(os.str().find("REGRESSION"), std::string::npos);
}

TEST(BenchDiff, CleanDiffHasNoViolations) {
  const std::string doc = R"({"a": 1, "b": {"c": 2.5}})";
  std::vector<DiffRule> rules;
  rules.push_back(parse_diff_rule("*=0.001", true));
  rules.push_back(parse_diff_rule("*=0.001", false));
  const DiffReport report = diff_metrics_json(doc, doc, rules);
  EXPECT_EQ(report.violations, 0);
}

// --- end-to-end: observation changes nothing ---------------------------------

TEST(TraceDeterminismSlow, TracingAndThreadsProduceIdenticalNetlists) {
  FlowOptions base;
  base.placer.effort = 1.0;
  base.placer.num_temps = 4;
  base.opt.max_iterations = 2;
  const PreparedCircuit prepared = prepare_benchmark("c499", lib035(), base);

  // Reference: tracing off, serial.
  FlowOptions serial = base;
  serial.opt.threads = 1;
  const ModeRun plain = run_mode(prepared, lib035(), OptMode::GsgPlusGS, serial);

  // Tracing + provenance on, serial.
  SessionContext session1("traced1");
  session1.tracer().enable(1);
  session1.provenance().enable();
  const ModeRun traced1 = run_mode(prepared, lib035(), OptMode::GsgPlusGS,
                                   session_flow_options(session1, serial));
  session1.tracer().disable();
  std::ostringstream trace1;
  session1.tracer().write_chrome_trace(trace1);
  std::string diag;
  const int chains1 = session1.provenance().resolve_committed_chains(&diag);

  // Tracing + provenance on, 4 workers.
  FlowOptions parallel = base;
  parallel.opt.threads = 4;
  SessionContext session4("traced4");
  session4.tracer().enable(4);
  session4.provenance().enable();
  const ModeRun traced4 = run_mode(prepared, lib035(), OptMode::GsgPlusGS,
                                   session_flow_options(session4, parallel));
  session4.tracer().disable();
  std::ostringstream trace4;
  session4.tracer().write_chrome_trace(trace4);
  const int chains4 = session4.provenance().resolve_committed_chains(&diag);
  const std::vector<ProvenanceRecord>& records4 = session4.provenance().records();

  // The headline: observation and worker count change NOTHING.
  EXPECT_EQ(blif_text(plain.optimized), blif_text(traced1.optimized));
  EXPECT_EQ(blif_text(plain.optimized), blif_text(traced4.optimized));
  EXPECT_EQ(plain.result.final_delay, traced4.result.final_delay);

  // Every committed move's chain resolves, identically across worker counts.
  EXPECT_GE(chains1, 1) << diag;
  EXPECT_EQ(chains1, chains4) << diag;
  EXPECT_EQ(chains4,
            traced4.result.swaps_committed + traced4.result.resizes_committed);

  // Both traces validate; the parallel one covers the span taxonomy (flow,
  // opt, probe, sync, arbitrate, commit at minimum) and multiple tracks.
  std::vector<std::string> cats;
  std::vector<std::int64_t> tids;
  ASSERT_TRUE(validate_chrome_trace(trace1.str(), &diag, &cats, &tids)) << diag;
  ASSERT_TRUE(validate_chrome_trace(trace4.str(), &diag, &cats, &tids)) << diag;
  EXPECT_GE(cats.size(), 5u);
  for (const char* want : {"flow", "opt", "probe", "sync", "arbitrate", "commit"}) {
    EXPECT_NE(std::find(cats.begin(), cats.end(), want), cats.end())
        << "missing span category " << want;
  }
  EXPECT_GE(tids.size(), 2u);

  // The provenance stream mirrors the scheduler's canonical decisions:
  // every record's round is a real round index.
  for (const ProvenanceRecord& rec : records4) {
    EXPECT_GE(move_id_round(rec.move_id), 1u);
    EXPECT_LE(move_id_round(rec.move_id),
              traced4.result.metrics.counter("scheduler.rounds"));
  }
}

TEST(TraceDeterminismSlow, MetricsSnapshotIsWorkerCountInvariantOnCounters) {
  FlowOptions base;
  base.placer.effort = 1.0;
  base.placer.num_temps = 4;
  base.opt.max_iterations = 2;
  const PreparedCircuit prepared = prepare_benchmark("alu2", lib035(), base);
  FlowOptions serial = base;
  serial.opt.threads = 1;
  FlowOptions parallel = base;
  parallel.opt.threads = 4;
  const ModeRun one = run_mode(prepared, lib035(), OptMode::GsgPlusGS, serial);
  const ModeRun four = run_mode(prepared, lib035(), OptMode::GsgPlusGS, parallel);

  MetricsRegistry m1, m4;
  collect_flow_metrics(m1, one.result);
  collect_flow_metrics(m4, four.result);
  // Deterministic outcome counters are identical across worker counts.
  for (const char* key :
       {"engine.swaps_committed", "engine.resizes_committed",
        "scheduler.rounds", "scheduler.committed", "engine.iterations"}) {
    EXPECT_EQ(m1.counter(key), m4.counter(key)) << key;
  }
  // The committed-gain distribution is part of the deterministic output.
  ASSERT_NE(m1.histogram("hist.probe_gain_ns"), nullptr);
  ASSERT_NE(m4.histogram("hist.probe_gain_ns"), nullptr);
  EXPECT_EQ(m1.histogram("hist.probe_gain_ns")->count(),
            m4.histogram("hist.probe_gain_ns")->count());
  EXPECT_DOUBLE_EQ(m1.histogram("hist.probe_gain_ns")->percentile(0.5),
                   m4.histogram("hist.probe_gain_ns")->percentile(0.5));

  // Gauges mirror the result (delay identical; wall clock merely present).
  EXPECT_EQ(m1.gauge("delay.final_ns"), m4.gauge("delay.final_ns"));
  EXPECT_GT(m4.gauge("time.optimize_s"), 0.0);

  // Snapshots survive a JSON round trip with every section populated.
  std::ostringstream os;
  m4.write_json(os);
  const auto flat = flatten_numeric(parse_json(os.str()));
  EXPECT_GT(flat.count("counters.scheduler.rounds"), 0u);
  EXPECT_GT(flat.count("gauges.time.optimize_s"), 0u);
  EXPECT_GT(flat.count("histograms.hist.probe_gain_ns.p50"), 0u);
}

TEST(TraceDeterminismSlow, PhaseBucketsCoverTheOptimizeTotal) {
  FlowOptions base;
  base.placer.effort = 1.0;
  base.placer.num_temps = 4;
  base.opt.max_iterations = 2;
  base.opt.threads = 2;
  const PreparedCircuit prepared = prepare_benchmark("c432", lib035(), base);
  const ModeRun run = run_mode(prepared, lib035(), OptMode::GsgPlusGS, base);
  const MetricsRegistry& m = run.result.metrics;
  const double total = m.gauge("time.optimize_s");
  EXPECT_EQ(total, run.result.seconds);
  double attributed = 0.0;
  for (const char* phase : {"time.setup_s", "time.groups_s", "time.probe_s",
                            "time.arbitrate_s", "time.commit_s", "time.finalize_s",
                            "time.unattributed_s"}) {
    ASSERT_TRUE(m.has_gauge(phase)) << phase;
    attributed += m.gauge(phase);
  }
  // The breakdown plus the unattributed remainder reconstructs the total
  // (the optimizer clamps the remainder at 0, so attributed can only
  // overshoot by timer noise).
  EXPECT_GE(attributed, total * 0.999);
  // The self-check contract: the named buckets dominate the total. Kept
  // loose (the hard >5% case only warns) so a loaded CI box can't flake it.
  EXPECT_LE(m.gauge("time.unattributed_s"), total * 0.5 + 0.05);
}

}  // namespace
}  // namespace rapids
