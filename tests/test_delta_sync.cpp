// O(dirty) replica delta sync: differential equality against the full
// clone path (network bytes, STA state, placement), multi-epoch catch-up
// through the journal, fallback after out-of-band run_full, and the
// flow-level guarantees — threads 1 vs N bit-identity on generated
// circuits and delta-on vs delta-off netlist identity.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "engine/rewire_engine.hpp"
#include "flow/flow.hpp"
#include "fuzz/fuzz.hpp"
#include "gen/large.hpp"
#include "io/blif_writer.hpp"
#include "parallel/probe_context.hpp"
#include "place/placer.hpp"
#include "sym/gisg.hpp"
#include "test_helpers.hpp"
#include "timing/sta.hpp"

namespace rapids {
namespace {

using rapids::testing::lib035;

/// Assert the two replicas hold byte-identical probe-visible state.
void expect_replicas_equal(const ProbeContext& delta, const ProbeContext& clone) {
  EXPECT_EQ(blif_text(delta.replica_net()), blif_text(clone.replica_net()));
  EXPECT_EQ(delta.replica_sta().critical_delay(), clone.replica_sta().critical_delay());
  const auto da = delta.replica_sta().arrivals();
  const auto ca = clone.replica_sta().arrivals();
  ASSERT_EQ(da.size(), ca.size());
  for (std::size_t i = 0; i < da.size(); ++i) {
    EXPECT_EQ(da[i].rise, ca[i].rise) << "arrival mismatch at gate " << i;
    EXPECT_EQ(da[i].fall, ca[i].fall) << "arrival mismatch at gate " << i;
  }
}

struct LiveFixture {
  Network net;
  Placement pl;
  Sta sta;
  RewireEngine engine;

  explicit LiveFixture(std::uint64_t seed)
      : net(testing::mapped(testing::random_mapped_network(seed))),
        pl(make_placement(net)),
        sta(net, lib035(), pl),
        engine(net, pl, lib035(), sta) {}

 private:
  Placement make_placement(const Network& n) {
    PlacerOptions popt;
    popt.effort = 1.0;
    popt.num_temps = 4;
    return place(n, lib035(), popt);
  }
};

TEST(DeltaSync, DeltaSyncedReplicaMatchesCloneSyncedAcrossEpochs) {
  LiveFixture f(4242);

  ProbeContext delta_ctx(lib035(), 1, 0);
  ProbeContext clone_ctx(lib035(), 1, 1);
  clone_ctx.set_delta_sync(false);

  delta_ctx.sync(f.engine);
  clone_ctx.sync(f.engine);
  expect_replicas_equal(delta_ctx, clone_ctx);

  // Commit a stream of real swaps on the live engine; after every epoch
  // both replicas re-sync and must agree byte for byte — and match the
  // live state (delta path correctness, not just mutual consistency).
  int commits = 0;
  for (int round = 0; round < 16 && commits < 10; ++round) {
    const std::vector<SwapCandidate> cands =
        enumerate_all_swaps(f.engine.partition(), f.net);
    if (cands.empty()) break;
    f.engine.commit(EngineMove::swap(cands[static_cast<std::size_t>(commits) %
                                           cands.size()]));
    ++commits;
    delta_ctx.sync(f.engine);
    clone_ctx.sync(f.engine);
    ASSERT_TRUE(delta_ctx.synced_to(f.engine.epoch()));
    ASSERT_TRUE(clone_ctx.synced_to(f.engine.epoch()));
    expect_replicas_equal(delta_ctx, clone_ctx);
    EXPECT_EQ(blif_text(delta_ctx.replica_net()), blif_text(f.net));
    EXPECT_EQ(delta_ctx.replica_sta().critical_delay(), f.sta.critical_delay());
  }
  ASSERT_GE(commits, 3) << "fixture produced too few committable swaps";

  // The delta path must actually have been exercised (first sync is full,
  // the rest ride the journal).
  const ReplicaSyncStats ds = delta_ctx.take_sync_stats();
  EXPECT_GE(ds.delta_syncs, static_cast<std::uint64_t>(commits));
  const ReplicaSyncStats cs = clone_ctx.take_sync_stats();
  EXPECT_EQ(cs.delta_syncs, 0u);
  EXPECT_GE(cs.full_syncs, static_cast<std::uint64_t>(commits));
  // Delta syncs move less data than clones on these small commit batches.
  EXPECT_GT(ds.bytes_delta, 0u);
}

TEST(DeltaSync, LaggingReplicaCatchesUpOverMultipleEpochs) {
  LiveFixture f(777);
  ProbeContext lag_ctx(lib035(), 1, 0);
  ProbeContext clone_ctx(lib035(), 1, 1);
  clone_ctx.set_delta_sync(false);

  lag_ctx.sync(f.engine);
  int commits = 0;
  for (int round = 0; round < 12 && commits < 6; ++round) {
    const std::vector<SwapCandidate> cands =
        enumerate_all_swaps(f.engine.partition(), f.net);
    if (cands.empty()) break;
    f.engine.commit(EngineMove::swap(cands[0]));
    ++commits;
    // The lagging replica only syncs every third epoch: its delta spans
    // several journal marks at once.
    if (commits % 3 == 0) {
      lag_ctx.sync(f.engine);
      clone_ctx.sync(f.engine);
      ASSERT_TRUE(lag_ctx.synced_to(f.engine.epoch()));
      expect_replicas_equal(lag_ctx, clone_ctx);
    }
  }
  ASSERT_GE(commits, 3);
}

TEST(DeltaSync, FallsBackToFullSyncAfterOutOfBandRunFull) {
  LiveFixture f(90125);
  ProbeContext ctx(lib035(), 1, 0);
  ctx.sync(f.engine);

  const std::vector<SwapCandidate> cands =
      enumerate_all_swaps(f.engine.partition(), f.net);
  ASSERT_FALSE(cands.empty());
  f.engine.commit(EngineMove::swap(cands[0]));
  // An out-of-band full STA pass bumps the state version: the journal's
  // incremental slices no longer describe the replica's baseline, so the
  // next sync must take the full path and still land bit-exact.
  f.sta.run_full();
  ctx.sync(f.engine);
  ASSERT_TRUE(ctx.synced_to(f.engine.epoch()));
  EXPECT_EQ(blif_text(ctx.replica_net()), blif_text(f.net));
  EXPECT_EQ(ctx.replica_sta().critical_delay(), f.sta.critical_delay());
  const ReplicaSyncStats st = ctx.take_sync_stats();
  EXPECT_GE(st.full_syncs, 2u);  // initial sync + post-run_full fallback
}

// --- flow level ---------------------------------------------------------------

TEST(DeltaSyncFlowSlow, ThreadCountsBitIdenticalOnGeneratedCircuit) {
  // The headline determinism contract, exercised on a generated circuit
  // large enough that epochs recycle gate ids (gsg adds and removes
  // inverters): threads 1 vs 4, delta sync on, byte-identical BLIF.
  LargeCircuitOptions lopt;
  lopt.target_gates = 1200;
  lopt.seed = 3;
  lopt.num_inputs = 64;
  const Network src = make_large_circuit(lopt);

  FlowOptions base;
  base.placer.effort = 1.0;
  base.placer.num_temps = 4;
  base.opt.max_iterations = 2;
  base.verify = false;
  const PreparedCircuit prepared = prepare_circuit("gen1200", src, lib035(), base);
  const std::string failure = check_exactness(
      prepared, lib035(), OptMode::Gsg, base, 4, exactness_oracles({"threads"}),
      [](const ExactnessOracle* row, const ModeRun& run) {
        const MetricsRegistry& m = run.result.metrics;
        if (row == nullptr) {
          // threads=1 probes the live engine and never syncs.
          EXPECT_EQ(m.counter("sync.delta_syncs") + m.counter("sync.full_syncs"), 0u);
        } else {
          EXPECT_GT(m.counter("sync.delta_syncs"), 0u);  // threads=4 rode the delta path
        }
      });
  EXPECT_EQ(failure, "");
}

TEST(DeltaSyncFlowSlow, DeltaOnOffProduceIdenticalNetlists) {
  LargeCircuitOptions lopt;
  lopt.target_gates = 800;
  lopt.seed = 11;
  lopt.num_inputs = 48;
  const Network src = make_large_circuit(lopt);

  FlowOptions base;
  base.placer.effort = 1.0;
  base.placer.num_temps = 4;
  base.opt.max_iterations = 2;
  base.verify = false;
  const PreparedCircuit prepared = prepare_circuit("gen800", src, lib035(), base);

  // threads=4 with delta sync on, and with the full-clone path.
  const std::string failure = check_exactness(
      prepared, lib035(), OptMode::Gsg, base, 4,
      exactness_oracles({"threads", "clone-sync"}),
      [](const ExactnessOracle* row, const ModeRun& run) {
        if (row == nullptr) return;
        const std::uint64_t delta_syncs = run.result.metrics.counter("sync.delta_syncs");
        if (row->name == "threads") {
          EXPECT_GT(delta_syncs, 0u);
        } else {
          EXPECT_EQ(delta_syncs, 0u);
        }
      });
  EXPECT_EQ(failure, "");
}

TEST(DeltaSyncFlowSlow, PruneCacheOnOffProduceIdenticalNetlists) {
  const Network src = testing::random_mapped_network(55);

  FlowOptions base;
  base.placer.effort = 1.0;
  base.placer.num_temps = 4;
  base.opt.max_iterations = 3;
  base.verify = false;
  const PreparedCircuit prepared = prepare_circuit("prune", src, lib035(), base);
  EXPECT_EQ(check_exactness(prepared, lib035(), OptMode::GsgPlusGS, base, 1,
                            exactness_oracles({"no-prune-cache"})),
            "");
}

}  // namespace
}  // namespace rapids
