// Parallel rewiring scheduler: conflict detector (overlapping vs disjoint
// cones, weight-balanced sharding),
// thread pool, RNG substreams, sharded stats, replica probe equivalence,
// replica staleness predicates and exact sync counters, the committed-gain
// histogram, and the headline guarantee — threads {1,2,4} produce
// byte-identical netlists and identical provenance commit chains.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "engine/rewire_engine.hpp"
#include "flow/flow.hpp"
#include "fuzz/fuzz.hpp"
#include "gen/large.hpp"
#include "io/blif_writer.hpp"
#include "netlist/builder.hpp"
#include "parallel/conflict.hpp"
#include "parallel/probe_context.hpp"
#include "parallel/scheduler.hpp"
#include "session/session.hpp"
#include "place/placer.hpp"
#include "sym/gisg.hpp"
#include "sym/symmetry.hpp"
#include "test_helpers.hpp"
#include "timing/sta.hpp"
#include "trace/provenance.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"
#include "verify/equivalence.hpp"

namespace rapids {
namespace {

using rapids::testing::lib035;
using rapids::testing::session_flow_options;

// --- thread pool -------------------------------------------------------------

TEST(ThreadPool, RunsEveryWorkerExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.workers(), 4);
  std::vector<std::atomic<int>> hits(4);
  for (auto& h : hits) h = 0;
  for (int round = 0; round < 3; ++round) {
    pool.run([&](int w) { ++hits[static_cast<std::size_t>(w)]; });
  }
  for (const auto& h : hits) EXPECT_EQ(h.load(), 3);
}

TEST(ThreadPool, SingleWorkerRunsInline) {
  ThreadPool pool(1);
  std::thread::id id;
  pool.run([&](int) { id = std::this_thread::get_id(); });
  EXPECT_EQ(id, std::this_thread::get_id());
}

TEST(ThreadPool, PropagatesWorkerExceptions) {
  ThreadPool pool(3);
  EXPECT_THROW(pool.run([&](int w) {
                 if (w == 2) throw std::runtime_error("boom");
               }),
               std::runtime_error);
  // The pool survives a throwing round.
  std::atomic<int> ok{0};
  pool.run([&](int) { ++ok; });
  EXPECT_EQ(ok.load(), 3);
}

// --- rng substreams ----------------------------------------------------------

TEST(RngSubstream, DeterministicAndDecorrelated) {
  Rng a0 = Rng::substream(42, 0);
  Rng a0_again = Rng::substream(42, 0);
  EXPECT_EQ(a0.next_u64(), a0_again.next_u64());
  // Different stream indices, seeds, and the base generator all diverge.
  EXPECT_NE(Rng::substream(42, 0).next_u64(), Rng::substream(42, 1).next_u64());
  EXPECT_NE(Rng::substream(42, 0).next_u64(), Rng(42).next_u64());
  EXPECT_NE(Rng::substream(43, 0).next_u64(), Rng::substream(42, 0).next_u64());
}

// --- sharded stats -----------------------------------------------------------

TEST(ShardedStats, MergesLikeSingleAccumulator) {
  RunningStats serial;
  ShardedStats sharded(4);
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.next_double() * 10.0 - 3.0;
    serial.add(x);
    sharded.shard(i % 4).add(x);
  }
  const RunningStats merged = sharded.merged();
  EXPECT_EQ(merged.count(), serial.count());
  EXPECT_NEAR(merged.mean(), serial.mean(), 1e-9);
  EXPECT_NEAR(merged.stddev(), serial.stddev(), 1e-9);
  EXPECT_DOUBLE_EQ(merged.min(), serial.min());
  EXPECT_DOUBLE_EQ(merged.max(), serial.max());
}

// --- conflict detector -------------------------------------------------------

/// Two disjoint 2-AND cones feeding separate outputs.
struct ConflictFixture {
  Network net;
  GateId a1, a2, b1, b2;  // and-gate layers: a2 consumes a1, b2 consumes b1

  ConflictFixture() {
    NetworkBuilder b;
    const GateId x0 = b.input("x0"), x1 = b.input("x1"), x2 = b.input("x2");
    const GateId y0 = b.input("y0"), y1 = b.input("y1"), y2 = b.input("y2");
    a1 = b.and_({x0, x1});
    a2 = b.and_({a1, x2});
    b1 = b.and_({y0, y1});
    b2 = b.and_({b1, y2});
    b.output("fa", a2);
    b.output("fb", b2);
    net = b.take();
  }
};

TEST(Conflict, DisjointConesDoNotOverlap) {
  ConflictFixture f;
  SwapCandidate sa;
  sa.pin_a = Pin{f.a1, 0};
  sa.pin_b = Pin{f.a1, 1};
  SwapCandidate sb;
  sb.pin_a = Pin{f.b1, 0};
  sb.pin_b = Pin{f.b1, 1};
  const ConflictSignature siga =
      move_signature(f.net, EngineMove::swap(sa), 2);
  const ConflictSignature sigb =
      move_signature(f.net, EngineMove::swap(sb), 2);
  EXPECT_FALSE(siga.overlaps(sigb));
  EXPECT_TRUE(siga.overlaps(siga));
}

TEST(Conflict, FanoutConeMakesDownstreamMovesOverlap) {
  ConflictFixture f;
  SwapCandidate shallow;  // rewires a1's pins; its fanout cone reaches a2
  shallow.pin_a = Pin{f.a1, 0};
  shallow.pin_b = Pin{f.a1, 1};
  const EngineMove resize_downstream = EngineMove::resize(f.a2, 0);
  const ConflictSignature s1 =
      move_signature(f.net, EngineMove::swap(shallow), 2);
  const ConflictSignature s2 = move_signature(f.net, resize_downstream, 2);
  // a2 is in the swap's fanout cone AND the resize touches a1 through its
  // fanin drivers (a1 drives one of a2's pins — same net).
  EXPECT_TRUE(s1.overlaps(s2));
  const ConflictSignature s1d0 =
      move_signature(f.net, EngineMove::swap(shallow), 0);
  const ConflictSignature s2d0 = move_signature(f.net, resize_downstream, 0);
  EXPECT_TRUE(s1d0.overlaps(s2d0));
}

TEST(Conflict, AssignShardsKeepsOverlappingGroupsTogether) {
  // Signatures: g0 {1,2}, g1 {2,3} (overlaps g0), g2 {10,11} (disjoint),
  // g3 {11} (overlaps g2), g4 {20} (alone).
  std::vector<ConflictSignature> sigs(5);
  sigs[0].touched = {1, 2};
  sigs[1].touched = {2, 3};
  sigs[2].touched = {10, 11};
  sigs[3].touched = {11};
  sigs[4].touched = {20};
  const std::vector<int> shard = assign_shards(sigs, 2);
  EXPECT_EQ(shard[0], shard[1]);
  EXPECT_EQ(shard[2], shard[3]);
  // Three components over two shards: at least two distinct shards used.
  EXPECT_NE(shard[0], shard[2]);
  for (const int s : shard) {
    EXPECT_GE(s, 0);
    EXPECT_LT(s, 2);
  }
  // Deterministic.
  EXPECT_EQ(shard, assign_shards(sigs, 2));
  // One shard degenerates to all-zero.
  for (const int s : assign_shards(sigs, 1)) EXPECT_EQ(s, 0);
}

TEST(Conflict, OversizedComponentIsSplitForLoadBalance) {
  // 40 groups chained into one component through a shared gate: keeping it
  // atomic would put the entire round on one worker. It must be split
  // evenly instead (replica isolation makes that safe).
  std::vector<ConflictSignature> sigs(40);
  for (int g = 0; g < 40; ++g) {
    sigs[static_cast<std::size_t>(g)].touched = {0u, static_cast<GateId>(g + 1)};
  }
  const std::vector<int> shard = assign_shards(sigs, 4);
  std::vector<int> count(4, 0);
  for (const int s : shard) ++count[static_cast<std::size_t>(s)];
  for (const int c : count) EXPECT_EQ(c, 10);
  EXPECT_EQ(shard, assign_shards(sigs, 4));
}

// --- weight-balanced conflict sharding ---------------------------------------

TEST(Conflict, WeightedSplitBalancesCandidateWeightNotGroupCount) {
  // One oversized component (8 groups chained through gate 0) where group 0
  // carries nearly all the probe weight. Count-based dealing would put 4
  // groups — including the heavy one — on one shard (103 vs 4 probes, the
  // c1908 skew in miniature). Weight-based dealing isolates the heavy group.
  std::vector<ConflictSignature> sigs(8);
  for (int g = 0; g < 8; ++g) {
    sigs[static_cast<std::size_t>(g)].touched = {0u, static_cast<GateId>(g + 1)};
  }
  std::vector<std::uint64_t> weights = {100, 1, 1, 1, 1, 1, 1, 1};
  const std::vector<int> shard = assign_shards(sigs, weights, 2);
  for (int g = 2; g < 8; ++g) EXPECT_EQ(shard[static_cast<std::size_t>(g)], shard[1]);
  EXPECT_NE(shard[0], shard[1]);
  std::vector<std::uint64_t> load(2, 0);
  for (int g = 0; g < 8; ++g) {
    load[static_cast<std::size_t>(shard[static_cast<std::size_t>(g)])] +=
        weights[static_cast<std::size_t>(g)];
  }
  EXPECT_EQ(std::max(load[0], load[1]), 100u);  // heavy group alone, not 103
  // Deterministic.
  EXPECT_EQ(shard, assign_shards(sigs, weights, 2));
}

TEST(Conflict, WeightedAtomicComponentsLandOnLeastWeightedShard) {
  // Four singleton components, one heavy. Dealing in group-index order onto
  // the least-weighted shard must pack the three light ones opposite the
  // heavy one instead of alternating by count.
  std::vector<ConflictSignature> sigs(4);
  for (int g = 0; g < 4; ++g) {
    sigs[static_cast<std::size_t>(g)].touched = {static_cast<GateId>(10 * (g + 1))};
  }
  const std::vector<std::uint64_t> weights = {50, 1, 1, 1};
  const std::vector<int> shard = assign_shards(sigs, weights, 2);
  EXPECT_EQ(shard[1], shard[2]);
  EXPECT_EQ(shard[2], shard[3]);
  EXPECT_NE(shard[0], shard[1]);
}

TEST(Conflict, UnitWeightsReproduceCountBasedSharding) {
  // The weighted rule with all-ones weights must reduce exactly to the
  // historical count rule — including the 10/10/10/10 oversized split the
  // older Conflict tests pin down.
  std::vector<ConflictSignature> sigs(40);
  for (int g = 0; g < 40; ++g) {
    sigs[static_cast<std::size_t>(g)].touched = {0u, static_cast<GateId>(g + 1)};
  }
  const std::vector<std::uint64_t> ones(40, 1);
  EXPECT_EQ(assign_shards(sigs, ones, 4), assign_shards(sigs, 4));
}

// --- replica probing ---------------------------------------------------------

TEST(ProbeContext, ReplicaProbesMatchLiveEngine) {
  Network net = testing::mapped(testing::random_mapped_network(99));
  PlacerOptions popt;
  popt.effort = 1.0;
  popt.num_temps = 4;
  Placement pl = place(net, lib035(), popt);
  Sta sta(net, lib035(), pl);
  RewireEngine engine(net, pl, lib035(), sta);

  const std::vector<SwapCandidate> swaps =
      enumerate_all_swaps(engine.partition(), net);
  ASSERT_FALSE(swaps.empty());

  ProbeContext ctx(lib035(), 1, 0);
  ctx.sync(engine);
  ASSERT_TRUE(ctx.synced_to(engine.epoch()));

  // State adoption is byte-exact: every arrival matches bit for bit.
  const auto live_arr = sta.arrivals();
  const auto replica_arr = ctx.engine().sta().arrivals();
  ASSERT_EQ(live_arr.size(), replica_arr.size());
  for (std::size_t i = 0; i < live_arr.size(); ++i) {
    EXPECT_EQ(live_arr[i].rise, replica_arr[i].rise);
    EXPECT_EQ(live_arr[i].fall, replica_arr[i].fall);
  }

  for (const SwapCandidate& c : swaps) {
    const EngineMove m = EngineMove::swap(c);
    const EngineObjective live = engine.probe(m);
    const EngineObjective replica = ctx.engine().probe_with(ctx.scratch(), m);
    // Bit-identical, not just close: replicas adopt the live timing state
    // byte-for-byte and probes are pure functions of state.
    EXPECT_EQ(live.critical, replica.critical);
    EXPECT_EQ(live.sum_po, replica.sum_po);
  }
  EXPECT_GT(ctx.take_stats().probes, 0u);
  EXPECT_EQ(ctx.take_stats().probes, 0u);
}

// --- replica staleness predicates (late-adopt regressions) -------------------

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

TEST(ProbeContextSync, RunFullInsideEpochBreaksInSyncWith) {
  // Regression: an out-of-band run_full (journal restart) rebuilds the live
  // timing state WITHOUT advancing the commit epoch. A replica adopted
  // before it passes the bare epoch check but holds pre-restart arrivals —
  // the trap the scheduler's old skip-sync fast path fell into.
  LiveFixture f(90125);
  ProbeContext ctx(lib035(), 1, 0);
  ctx.sync(f.engine);
  EXPECT_TRUE(ctx.in_sync_with(f.engine));

  f.sta.run_full();
  EXPECT_TRUE(ctx.synced_to(f.engine.epoch()));  // epoch alone says "fresh"
  EXPECT_FALSE(ctx.in_sync_with(f.engine));      // state version says stale

  ctx.sync(f.engine);  // must fall back to the full path and land bit-exact
  EXPECT_TRUE(ctx.in_sync_with(f.engine));
  EXPECT_EQ(blif_text(ctx.replica_net()), blif_text(f.net));
  EXPECT_EQ(ctx.replica_sta().critical_delay(), f.sta.critical_delay());
}

// --- exact replica-sync counters ---------------------------------------------

TEST(ProbeContextSync, SyncCountersAreExactOnHandCountedTrace) {
  // Every counter in ReplicaSyncStats is checked against a hand-counted
  // trace: delta_syncs counts exactly the epoch-advancing journal replays,
  // delta_commits exactly the commit epochs those replays spanned, and
  // full_syncs exactly the clone-path syncs. Same-epoch repeat calls are
  // no-ops and must not inflate anything — the metrics-json contract.
  LiveFixture f(4242);
  ProbeContext ctx(lib035(), 1, 0);

  const auto commit_some = [&](int want) {
    int done = 0;
    for (int round = 0; round < 8 && done < want; ++round) {
      const std::vector<SwapCandidate> cands =
          enumerate_all_swaps(f.engine.partition(), f.net);
      if (cands.empty()) break;
      f.engine.commit(EngineMove::swap(
          cands[static_cast<std::size_t>(done) % cands.size()]));
      ++done;
    }
    return done;
  };

  ctx.sync(f.engine);  // full #1 (initial clone)

  const int span1 = commit_some(2);
  ASSERT_GE(span1, 1);
  ctx.sync(f.engine);  // delta #1, spans span1 commits
  ctx.sync(f.engine);  // same-epoch repeat: no-op, counts nothing
  ctx.sync(f.engine);  // same-epoch repeat: no-op, counts nothing

  const int span2 = commit_some(3);
  ASSERT_GE(span2, 1);
  ctx.sync(f.engine);  // delta #2, spans span2 commits

  f.sta.run_full();    // out-of-band: journal restart for this replica
  ctx.sync(f.engine);  // full #2 (state-version fallback, same epoch)

  const int span3 = commit_some(1);
  ASSERT_GE(span3, 1);
  ctx.sync(f.engine);  // delta #3, spans span3 commits

  f.engine.invalidate_partition();  // kills the sync journal too
  (void)f.engine.partition();
  ctx.sync(f.engine);  // full #3 (journal unavailable, same epoch)

  const ReplicaSyncStats s = ctx.take_sync_stats();
  EXPECT_EQ(s.syncs, 8u);
  EXPECT_EQ(s.full_syncs, 3u);
  EXPECT_EQ(s.delta_syncs, 3u);
  EXPECT_EQ(s.delta_commits,
            static_cast<std::uint64_t>(span1 + span2 + span3));
  EXPECT_GT(s.bytes_full, 0u);
  EXPECT_GT(s.bytes_delta, 0u);

  // And the replica is still bit-exact after the whole obstacle course.
  EXPECT_EQ(blif_text(ctx.replica_net()), blif_text(f.net));
  EXPECT_EQ(ctx.replica_sta().critical_delay(), f.sta.critical_delay());
}

// --- scheduler ---------------------------------------------------------------

TEST(SchedulerDeterminism, ThreadCountsProduceIdenticalNetlists) {
  // The headline guarantee on real circuits, end to end through the flow:
  // identical verified BLIF output and final delay for 1 vs 8 workers.
  FlowOptions base;
  base.placer.effort = 1.0;
  base.placer.num_temps = 4;
  base.opt.max_iterations = 2;
  for (const char* name : {"alu2", "c432", "c499"}) {
    const PreparedCircuit prepared = prepare_benchmark(name, lib035(), base);
    EXPECT_EQ(check_exactness(prepared, lib035(), OptMode::GsgPlusGS, base, 8,
                              exactness_oracles({"threads"})),
              "")
        << name;
  }
}

TEST(SchedulerDeterminism, RepeatedRunsAreIdentical) {
  FlowOptions base;
  base.placer.effort = 1.0;
  base.placer.num_temps = 4;
  const PreparedCircuit prepared = prepare_benchmark("alu2", lib035(), base);
  FlowOptions opt = base;
  opt.opt.threads = 3;
  opt.opt.max_iterations = 2;
  const ModeRun r1 = run_mode(prepared, lib035(), OptMode::Gsg, opt);
  const ModeRun r2 = run_mode(prepared, lib035(), OptMode::Gsg, opt);
  EXPECT_EQ(blif_text(r1.optimized), blif_text(r2.optimized));
  EXPECT_EQ(r1.result.final_delay, r2.result.final_delay);
}

TEST(Scheduler, RoundCommitsImproveOrHold) {
  Network net = testing::mapped(testing::random_mapped_network(123));
  PlacerOptions popt;
  popt.effort = 1.0;
  popt.num_temps = 4;
  Placement pl = place(net, lib035(), popt);
  Sta sta(net, lib035(), pl);
  RewireEngine engine(net, pl, lib035(), sta);
  SessionContext session("default");
  SchedulerOptions sopt;
  sopt.threads = 4;
  ParallelRewireScheduler sched(engine, session, sopt);

  std::vector<std::vector<EngineMove>> lists;
  const GisgPartition& part = engine.partition();
  for (std::size_t s = 0; s < part.sgs.size(); ++s) {
    if (part.sgs[s].is_trivial()) continue;
    std::vector<EngineMove> g;
    for (const SwapCandidate& c :
         enumerate_swaps(part, static_cast<int>(s), net)) {
      g.push_back(EngineMove::swap(c));
    }
    if (!g.empty()) lists.push_back(std::move(g));
  }

  const std::vector<ProbeGroup> groups(lists.begin(), lists.end());

  const double before = sta.critical_delay();
  const int committed = sched.run_round(groups, ProbePolicy::MinCritical, 1e-6);
  EXPECT_LE(sta.critical_delay(), before + 1e-9);
  EXPECT_EQ(sched.stats().committed, static_cast<std::uint64_t>(committed));
  EXPECT_GE(sched.stats().worker_probes, sched.stats().accepted);
  EXPECT_GT(sched.stats().rounds, 0u);
}


TEST(Scheduler, GainHistogramCountsOnlyTimingCommits) {
  // hist.probe_gain_ns describes delay-improving commits: MinCritical and
  // Relaxation live gains. Area recovery (the flow's last round, FirstFit)
  // trades delay for area, so its commits stay out of the histogram.
  FlowOptions base;
  base.placer.effort = 1.0;
  base.placer.num_temps = 4;
  base.opt.max_iterations = 2;
  base.verify = false;
  const PreparedCircuit prepared = prepare_benchmark("c432", lib035(), base);
  for (const int threads : {1, 4}) {
    SessionContext session("gain-hist");
    FlowOptions o = session_flow_options(session, base);
    o.opt.threads = threads;
    session.provenance().enable();
    const ModeRun run = run_mode(prepared, lib035(), OptMode::GsgPlusGS, o);
    std::int64_t committed = 0;
    std::int64_t first_fit = 0;
    for (const ProvenanceRecord& rec : session.provenance().records()) {
      if (rec.stage != ProvenanceStage::Committed) continue;
      ++committed;
      if (move_id_round(rec.move_id) == run.result.metrics.counter("scheduler.rounds")) {
        ++first_fit;
      }
    }
    EXPECT_EQ(committed, run.result.swaps_committed + run.result.resizes_committed)
        << "threads=" << threads;
    EXPECT_GT(first_fit, 0) << "threads=" << threads;  // area recovery ran
    EXPECT_GT(committed - first_fit, 0) << "threads=" << threads;
    const Histogram* gains = run.result.metrics.histogram("hist.probe_gain_ns");
    ASSERT_NE(gains, nullptr);
    EXPECT_EQ(gains->count(), committed - first_fit) << "threads=" << threads;
    EXPECT_GT(gains->p50(), 0.0) << "threads=" << threads;
  }
}

// --- flow-level determinism: the thread-count matrix -------------------------

struct ThreadRun {
  std::string blif;
  std::vector<std::pair<std::uint64_t, double>> commits;  // (move_id, gain)
  int chains = 0;
  double final_delay = 0.0;
};

ThreadRun run_threads(const PreparedCircuit& prepared, const FlowOptions& base,
                      int threads) {
  SessionContext session("threads");
  FlowOptions o = session_flow_options(session, base);
  o.opt.threads = threads;
  session.provenance().enable();
  const ModeRun run = run_mode(prepared, lib035(), OptMode::GsgPlusGS, o);
  ThreadRun out;
  std::string diag;
  out.chains = session.provenance().resolve_committed_chains(&diag);
  for (const ProvenanceRecord& rec : session.provenance().records()) {
    if (rec.stage == ProvenanceStage::Committed) {
      out.commits.emplace_back(rec.move_id, rec.gain);
    }
  }
  out.blif = blif_text(run.optimized);
  out.final_delay = run.result.final_delay;
  return out;
}

void expect_thread_count_identity(const char* name, const PreparedCircuit& prepared,
                                  const FlowOptions& base) {
  const ThreadRun ref = run_threads(prepared, base, 1);
  ASSERT_FALSE(ref.blif.empty()) << name;
  for (const int threads : {2, 4}) {
    const ThreadRun r = run_threads(prepared, base, threads);
    const std::string cfg = std::string(name) + " threads=" + std::to_string(threads);
    // Byte-identical netlist...
    EXPECT_EQ(ref.blif, r.blif) << cfg;
    // ...and an identical committed-move provenance chain: same move
    // coordinates (round/group/move), same live gains, same order.
    EXPECT_EQ(ref.commits, r.commits) << cfg;
    EXPECT_EQ(ref.chains, r.chains) << cfg;
    EXPECT_EQ(ref.final_delay, r.final_delay) << cfg;
  }
}

FlowOptions matrix_options(int max_iterations) {
  FlowOptions base;
  base.placer.effort = 1.0;
  base.placer.num_temps = 4;
  base.opt.max_iterations = max_iterations;
  base.verify = false;
  return base;
}

TEST(SchedulerDeterminism, ThreadMatrixIdenticalOnSmallBenchmarks) {
  const FlowOptions base = matrix_options(2);
  for (const char* name : {"alu2", "c432"}) {
    const PreparedCircuit prepared = prepare_benchmark(name, lib035(), base);
    expect_thread_count_identity(name, prepared, base);
  }
}

TEST(SchedulerDeterminismSlow, ThreadMatrixIdenticalOnLargeBenchmarks) {
  const FlowOptions base = matrix_options(2);
  for (const char* name : {"c499", "c6288"}) {
    const PreparedCircuit prepared = prepare_benchmark(name, lib035(), base);
    expect_thread_count_identity(name, prepared, base);
  }
}

TEST(SchedulerDeterminismSlow, ThreadMatrixIdenticalOnGeneratedCircuit) {
  // A generated circuit large enough that epochs recycle gate ids and the
  // partition is incrementally maintained across many rounds.
  LargeCircuitOptions lopt;
  lopt.target_gates = 10000;
  lopt.seed = 8;
  lopt.num_inputs = 96;
  const Network src = make_large_circuit(lopt);
  const FlowOptions base = matrix_options(1);
  const PreparedCircuit prepared = prepare_circuit("gen10000", src, lib035(), base);
  expect_thread_count_identity("gen10000", prepared, base);
}

}  // namespace
}  // namespace rapids
