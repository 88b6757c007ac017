// SessionContext: owned observability bundles, thread-scoped installation,
// and the headline property — concurrent flows on separate sessions are
// byte-identical to their serial runs (BLIF, provenance, metrics).
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "flow/flow.hpp"
#include "gen/suite.hpp"
#include "io/blif_writer.hpp"
#include "session/session.hpp"
#include "test_helpers.hpp"
#include "trace/metrics.hpp"
#include "trace/provenance.hpp"
#include "trace/trace.hpp"
#include "util/assert.hpp"
#include "util/log.hpp"

namespace rapids {
namespace {

using rapids::testing::lib035;
using rapids::testing::session_flow_options;

TEST(Session, ScopeInstallsAndRestoresThreadContext) {
  const char* prev_tag = current_log_tag();
  const int prev_worker = current_worker();

  SessionContext s("scope-test");
  {
    SessionScope scope(s, 3);
    EXPECT_STREQ(current_log_tag(), "scope-test");
    EXPECT_EQ(current_worker(), 3);
    {
      SessionContext inner("inner");
      SessionScope nested(inner, 7);
      EXPECT_STREQ(current_log_tag(), "inner");
      EXPECT_EQ(current_worker(), 7);
    }
    // The nested scope restored the outer session's tag AND its worker id.
    EXPECT_STREQ(current_log_tag(), "scope-test");
    EXPECT_EQ(current_worker(), 3);
  }
  EXPECT_EQ(current_log_tag(), prev_tag);
  EXPECT_EQ(current_worker(), prev_worker);
}

TEST(Session, OwnedSessionsAreIsolated) {
  SessionContext a("a"), b("b");
  EXPECT_NE(&a.tracer(), &b.tracer());
  EXPECT_NE(&a.provenance(), &b.provenance());
  EXPECT_EQ(a.provenance().session_id(), "a");
  EXPECT_EQ(b.provenance().session_id(), "b");
  std::ostringstream ma;
  a.metrics().write_json(ma);
  EXPECT_NE(ma.str().find("\"session.id\": \"a\""), std::string::npos);
}

TEST(Session, OwnedPoolIsPersistentAndResizable) {
  SessionContext s("pool");
  ThreadPool* p2 = &s.acquire_pool(2);
  EXPECT_EQ(p2->workers(), 2);
  // Same size: the warm pool is reused, not respawned.
  EXPECT_EQ(&s.acquire_pool(2), p2);
  EXPECT_EQ(s.acquire_pool(3).workers(), 3);
}

TEST(Session, TracerDoubleEnableThrows) {
  Tracer t;
  t.enable(2);
  EXPECT_THROW(t.enable(2), InternalError);
  EXPECT_THROW(t.enable(4), InternalError);
  t.disable();
  t.enable(1);  // disable -> enable is the supported reuse path
  t.disable();
}

TEST(Session, TracerOutOfRangeWorkerDropsInsteadOfUB) {
  Tracer t;
  t.enable(2);  // rings for workers 0 and 1
  {
    WorkerIdScope w(1);
    t.instant("test", "in_range");
  }
  EXPECT_EQ(t.dropped_out_of_range(), 0u);
  {
    WorkerIdScope w(5);  // beyond the ring array: dropped, counted, no UB
    t.instant("test", "out_of_range");
    t.instant("test", "out_of_range_again");
  }
  EXPECT_EQ(t.dropped_out_of_range(), 2u);
  {
    WorkerIdScope w(-1);  // unset id clamps to the main-thread ring
    t.instant("test", "main_thread");
  }
  t.disable();
  EXPECT_EQ(t.recorded(), 2u);            // in_range + main_thread
  EXPECT_GE(t.dropped(), 2u);             // folds the out-of-range count in
  t.enable(2);                            // re-enable resets the drop counter
  EXPECT_EQ(t.dropped_out_of_range(), 0u);
  t.disable();
}

// --- the tentpole property -------------------------------------------------
//
// Two flows on overlapping threads in one process, each on its own session,
// must produce byte-identical artifacts to the same flows run serially:
// same BLIF, same provenance stream, same metrics (modulo wall-clock).

struct FlowArtifacts {
  std::string blif;
  std::string provenance;
  std::string metrics;
};

FlowOptions quick_flow() {
  FlowOptions o;
  o.placer.effort = 1.0;
  o.placer.num_temps = 6;
  o.opt.max_iterations = 2;
  o.opt.threads = 2;
  return o;
}

/// Strip wall-clock metrics ("time.*" / "rate.*" gauges) — the only
/// nondeterministic lines in the registry snapshot.
std::string strip_wall_clock(const std::string& json) {
  std::istringstream is(json);
  std::ostringstream os;
  std::string line;
  while (std::getline(is, line)) {
    if (line.find("\"time.") != std::string::npos) continue;
    if (line.find("\"rate.") != std::string::npos) continue;
    os << line << '\n';
  }
  return os.str();
}

FlowArtifacts run_session_flow(const std::string& id, const std::string& circuit) {
  SessionContext session(id);
  SessionScope scope(session);
  session.provenance().enable();
  const FlowOptions options = session_flow_options(session, quick_flow());
  PreparedCircuit prepared = prepare_benchmark(circuit, lib035(), options);
  const ModeRun run =
      run_mode(std::move(prepared), lib035(), OptMode::GsgPlusGS, options);
  EXPECT_TRUE(run.verified) << id;

  FlowArtifacts out;
  out.blif = blif_text(run.optimized, circuit);

  session.provenance().disable();
  std::string diag;
  EXPECT_GE(session.provenance().resolve_committed_chains(&diag), 0) << diag;
  std::ostringstream prov;
  session.provenance().write_json(prov);
  out.provenance = prov.str();

  std::ostringstream metrics;
  session.metrics().write_json(metrics);
  out.metrics = strip_wall_clock(metrics.str());
  return out;
}

TEST(SessionConcurrencySlow, ConcurrentFlowsMatchSerialRunsByteForByte) {
  // Serial references, each on a fresh owned session.
  const FlowArtifacts serial_c432 = run_session_flow("s432", "c432");
  const FlowArtifacts serial_c499 = run_session_flow("s499", "c499");
  ASSERT_FALSE(serial_c432.blif.empty());
  ASSERT_NE(serial_c432.blif, serial_c499.blif);
  EXPECT_NE(serial_c432.provenance.find("\"session\": \"s432\""),
            std::string::npos);

  // The same two flows, concurrently: each job thread runs a full flow on
  // its own session (and its session's own 2-worker probe pool), so four
  // threads overlap inside one process.
  FlowArtifacts conc_c432, conc_c499;
  std::thread t432([&] { conc_c432 = run_session_flow("s432", "c432"); });
  std::thread t499([&] { conc_c499 = run_session_flow("s499", "c499"); });
  t432.join();
  t499.join();

  EXPECT_EQ(conc_c432.blif, serial_c432.blif);
  EXPECT_EQ(conc_c499.blif, serial_c499.blif);
  EXPECT_EQ(conc_c432.provenance, serial_c432.provenance);
  EXPECT_EQ(conc_c499.provenance, serial_c499.provenance);
  EXPECT_EQ(conc_c432.metrics, serial_c432.metrics);
  EXPECT_EQ(conc_c499.metrics, serial_c499.metrics);
}

// The perfbench call shape — prepare_circuit and run_mode(&&) with no
// session — resolves to a call-local session at each entry point and must
// write the same BLIF as the same flow on a caller-owned session.
TEST(Session, SessionlessRunModeMatchesOwnedSession) {
  const Network src = make_benchmark("c432");
  for (const int threads : {1, 4}) {
    FlowOptions options = quick_flow();
    options.opt.threads = threads;
    PreparedCircuit bare = prepare_circuit("c432", src, lib035(), options);
    const ModeRun bare_run =
        run_mode(std::move(bare), lib035(), OptMode::GsgPlusGS, options);

    SessionContext session("owned");
    const FlowOptions owned_options = session_flow_options(session, options);
    PreparedCircuit owned = prepare_circuit("c432", src, lib035(), owned_options);
    const ModeRun owned_run =
        run_mode(std::move(owned), lib035(), OptMode::GsgPlusGS, owned_options);

    EXPECT_TRUE(bare_run.verified) << "threads=" << threads;
    EXPECT_EQ(blif_text(bare_run.optimized), blif_text(owned_run.optimized))
        << "threads=" << threads;
    // Every session collects its flow metrics, owned or call-local.
    EXPECT_GT(session.metrics().counter("scheduler.rounds"), 0u)
        << "threads=" << threads;
  }
}

}  // namespace
}  // namespace rapids
