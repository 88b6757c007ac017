// Persistent incremental proof sessions (sat/proof_session.hpp): window
// protocol, cross-move cache reuse and invalidation (by affected-cone
// epoch and by recycled gate id), stats delta accounting, and the
// engine-level differential against the per-move WindowChecker — session
// mode must prove the SAME move set, move-for-move.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "engine/rewire_engine.hpp"
#include "flow/flow.hpp"
#include "gen/suite.hpp"
#include "io/blif_writer.hpp"
#include "netlist/builder.hpp"
#include "place/placer.hpp"
#include "sat/proof_session.hpp"
#include "sym/symmetry.hpp"
#include "test_helpers.hpp"
#include "verify/equivalence.hpp"

namespace rapids {
namespace {

using sat::ProofSession;

std::string blif_of(const Network& net) {
  std::ostringstream os;
  write_blif(net, os, "t");
  return os.str();
}

// --- window protocol --------------------------------------------------------

TEST(ProofSession, ProvesNoOpAndRefutesRealEdit) {
  NetworkBuilder b;
  const GateId a = b.input("a"), x = b.input("b"), c = b.input("c");
  const GateId g = b.and_({a, x, c});
  b.output("f", g);
  Network net = b.take();

  ProofSession session;
  const GateId changed[] = {g};
  session.begin(net, {&g, 1}, changed);
  net.set_fanin(Pin{g, 0}, x);
  net.set_fanin(Pin{g, 1}, a);  // symmetric swap: function preserved
  EXPECT_TRUE(session.check(net, {}));
  session.keep();

  session.begin(net, {&g, 1}, changed);
  net.set_fanin(Pin{g, 2}, a);  // AND(x,a,a): drops the c input
  std::string diag;
  EXPECT_FALSE(session.check(net, {}, &diag));
  EXPECT_NE(diag.find("function changed"), std::string::npos);
  net.set_fanin(Pin{g, 2}, c);  // roll the edit back
  session.abandon();

  // The session survives a refuted window: the next legitimate move still
  // proves on the same solver.
  session.begin(net, {&g, 1}, changed);
  net.set_fanin(Pin{g, 0}, a);
  net.set_fanin(Pin{g, 1}, x);
  EXPECT_TRUE(session.check(net, {}));
  session.keep();
  EXPECT_EQ(session.stats().moves_checked, 3u);
  EXPECT_EQ(session.stats().windows_kept, 2u);
  EXPECT_EQ(session.stats().windows_abandoned, 1u);
}

TEST(ProofSession, DoubleBeginAbandonsTheStaleWindow) {
  NetworkBuilder b;
  const GateId a = b.input("a"), x = b.input("b"), c = b.input("c");
  const GateId g = b.and_({a, x, c});
  const GateId h = b.or_({a, c});
  b.output("f", g);
  b.output("f2", h);
  Network net = b.take();

  ProofSession session;
  const GateId changed_h[] = {h};
  const GateId changed_g[] = {g};
  session.begin(net, {&h, 1}, changed_h);  // probe abandoned mid-flight
  session.begin(net, {&g, 1}, changed_g);  // must reset cleanly
  EXPECT_EQ(session.stats().windows_abandoned, 1u);
  net.set_fanin(Pin{g, 0}, x);
  net.set_fanin(Pin{g, 1}, a);
  EXPECT_TRUE(session.check(net, {}));
  session.keep();
  // Only the checked window counts as a move.
  EXPECT_EQ(session.stats().moves_checked, 1u);
}

TEST(ProofSession, DetectsUndominatedEdit) {
  NetworkBuilder b;
  const GateId a = b.input("a"), c = b.input("b");
  const GateId g = b.and_({a, c});
  const GateId h = b.or_({a, c});
  b.output("f", g);
  b.output("f2", h);
  Network net = b.take();

  ProofSession session;
  const GateId changed[] = {g};
  session.begin(net, {&h, 1}, changed);  // wrong root: h does not dominate g
  net.set_fanin(Pin{g, 0}, c);
  std::string diag;
  EXPECT_FALSE(session.check(net, {}, &diag));
  EXPECT_NE(diag.find("without passing"), std::string::npos);
  net.set_fanin(Pin{g, 0}, a);
  session.abandon();
}

// --- cross-move amortization ------------------------------------------------

TEST(ProofSession, WarmCacheAmortizesRepeatedWindows) {
  // Re-proving the same window must reuse the cached frontier: after the
  // first move, per-move encoding work drops and cache hits appear.
  NetworkBuilder b;
  std::vector<GateId> ins;
  for (int i = 0; i < 6; ++i) ins.push_back(b.input("i" + std::to_string(i)));
  const GateId l = b.and_({ins[0], ins[1], ins[2]});
  const GateId r = b.and_({ins[3], ins[4], ins[5]});
  const GateId g = b.and_({l, r});
  b.output("f", g);
  Network net = b.take();

  ProofSession session;
  const GateId changed[] = {g};
  session.begin(net, {&g, 1}, changed);
  net.set_fanin(Pin{g, 0}, r);
  net.set_fanin(Pin{g, 1}, l);
  ASSERT_TRUE(session.check(net, {}));
  session.keep();
  const auto first = session.stats();

  session.begin(net, {&g, 1}, changed);
  net.set_fanin(Pin{g, 0}, l);
  net.set_fanin(Pin{g, 1}, r);
  ASSERT_TRUE(session.check(net, {}));
  session.keep();
  const auto second = session.stats();

  // Second window re-derives only the root (hash-cons hits); the cut
  // frontier (l, r) is served from the cache.
  EXPECT_LT(second.gates_encoded - first.gates_encoded, first.gates_encoded);
  EXPECT_GT(second.cache_hits, first.cache_hits);
}

TEST(ProofSession, ConflictStatsAreDeltaAccounted) {
  // The session's conflict counter must equal the persistent solver's
  // cumulative total after any number of moves — adding the cumulative
  // counter per move (the throwaway-checker idiom) would overshoot.
  NetworkBuilder b;
  const GateId a = b.input("a"), x = b.input("b"), c = b.input("c"),
               d = b.input("d");
  // Nested structure so a pin swap across subtrees needs real SAT work:
  // AND(AND(a,x), AND(c,d)) vs AND(AND(a,c), AND(x,d)).
  const GateId l = b.and_({a, x});
  const GateId r = b.and_({c, d});
  const GateId g = b.and_({l, r});
  b.output("f", g);
  Network net = b.take();

  ProofSession session;
  for (int round = 0; round < 3; ++round) {
    const GateId changed[] = {l, r};
    session.begin(net, {&g, 1}, changed);
    // Exchange x and c between the subtrees (AND is fully symmetric over
    // its flattened support, but the nested encoding needs the solver).
    const GateId old_l1 = net.fanin(l, 1), old_r0 = net.fanin(r, 0);
    net.set_fanin(Pin{l, 1}, old_r0);
    net.set_fanin(Pin{r, 0}, old_l1);
    ASSERT_TRUE(session.check(net, {}));
    session.keep();
  }
  EXPECT_EQ(session.stats().moves_checked, 3u);
  EXPECT_EQ(session.stats().conflicts, session.solver_stats().conflicts);
}

// --- fault injection: warm-cache invalidation -------------------------------

TEST(ProofSessionFaultInjection, WarmSessionRefutesMutants) {
  // A warm session whose cache already holds the pre-mutation cones must
  // still REFUTE seeded mutants — cache invalidation by affected-cone
  // epoch is what keeps the pre-side honest.
  NetworkBuilder b;
  const GateId x = b.input("x"), y = b.input("y"), z = b.input("z");
  const GateId g = b.and_({x, y});
  const GateId r = b.and_({g, z});
  b.output("f", r);
  Network net = b.take();

  ProofSession session;
  // Warm: a legitimate swap at g, kept — the cache now holds cones for g
  // and r's frontier.
  const GateId changed_g[] = {g};
  session.begin(net, {&g, 1}, changed_g);
  net.set_fanin(Pin{g, 0}, y);
  net.set_fanin(Pin{g, 1}, x);
  ASSERT_TRUE(session.check(net, {}));
  session.keep();

  // Mutant 1: pin fault (g's y-input rewired to x: AND(x,x) == x != x&y).
  session.begin(net, {&g, 1}, changed_g);
  net.set_fanin(Pin{g, 0}, x);
  EXPECT_FALSE(session.check(net, {}));
  net.set_fanin(Pin{g, 0}, y);
  session.abandon();

  // Mutant 2: type fault at g, observed at the downstream root r whose
  // cone the cache already holds.
  session.begin(net, {&r, 1}, changed_g);
  net.set_type(g, GateType::Nand);
  EXPECT_FALSE(session.check(net, {}));
  net.set_type(g, GateType::And);
  session.abandon();

  // Health check: a legitimate move still proves after the refutations.
  session.begin(net, {&g, 1}, changed_g);
  net.set_fanin(Pin{g, 0}, x);
  net.set_fanin(Pin{g, 1}, y);
  EXPECT_TRUE(session.check(net, {}));
  session.keep();
}

TEST(ProofSessionFaultInjection, RecycledGateIdsAreInvalidated) {
  // A created gate's id may alias a gate the session cached before it was
  // deleted; the stale entry must be displaced or a mutant hiding behind
  // the recycled id would inherit the dead gate's (possibly compatible)
  // encoding.
  NetworkBuilder b;
  const GateId x = b.input("x"), y = b.input("y"), z = b.input("z");
  const GateId g = b.and_({x, y});
  const GateId r = b.and_({g, z});
  b.output("f", r);
  Network net = b.take();
  net.set_id_recycling(true);

  ProofSession session;
  // Move 1 (kept): reroute r's z-pin through a double inversion — the
  // created inverters get cached cone entries.
  const GateId changed_r[] = {r};
  session.begin(net, {&r, 1}, changed_r);
  const GateId i1 = net.add_gate(GateType::Inv);
  net.add_fanin(i1, z);
  const GateId i2 = net.add_gate(GateType::Inv);
  net.add_fanin(i2, i1);
  net.set_fanin(Pin{r, 1}, i2);
  const GateId created1[] = {i1, i2};
  ASSERT_TRUE(session.check(net, created1));
  session.keep();

  // Move 2 (kept): undo the detour so the inverters go dangling.
  session.begin(net, {&r, 1}, changed_r);
  net.set_fanin(Pin{r, 1}, z);
  ASSERT_TRUE(session.check(net, {}));
  session.keep();

  // Delete the dangling chain: i2 first, then i1 — with recycling on, the
  // next add_gate pops i1's id again.
  net.delete_gate(i2);
  net.delete_gate(i1);

  // Move 3: a MUTANT that inverts g's x-input through a fresh inverter
  // whose id aliases the deleted i1. With a stale cache entry the post
  // walk could pick up the dead gate's cone; the created-gate displacement
  // must force a fresh encoding and refute the move.
  const GateId changed_g[] = {g};
  session.begin(net, {&g, 1}, changed_g);
  const GateId i3 = net.add_gate(GateType::Inv);
  ASSERT_EQ(i3, i1) << "test premise: the id must be recycled";
  net.add_fanin(i3, x);
  net.set_fanin(Pin{g, 0}, i3);  // g = AND(!x, y): function changed
  const GateId created3[] = {i3};
  EXPECT_FALSE(session.check(net, created3));
  EXPECT_GT(session.stats().recycled_ids_invalidated, 0u);
  net.set_fanin(Pin{g, 0}, x);
  net.delete_gate(i3);
  session.abandon();
}

// --- engine-level differential ----------------------------------------------

TEST(Paranoid, InconclusiveAndProvedStayDisjoint) {
  // With zero conflict budgets every SAT-needing proof becomes
  // inconclusive (window Unknown -> full-miter Unknown -> conservative
  // reject). moves_checked must partition exactly into proved verdicts and
  // inconclusive rejects, the rejects must be rolled back cleanly, and the
  // accounting must agree between prover modes.
  const CellLibrary& lib = rapids::testing::lib035();
  const Network src = make_benchmark("c432");
  const Network golden = rapids::testing::mapped(src);
  for (const bool session : {true, false}) {
    Network net = golden.clone();
    Placement pl = place(net, lib, PlacerOptions{});
    Sta sta(net, lib, pl);
    sta.run_full();
    RewireEngine engine(net, pl, lib, sta);
    ParanoidOptions popt;
    popt.session = session;
    popt.window_conflict_limit = 0;
    popt.miter_conflict_limit = 0;
    engine.set_paranoid(true, popt);

    // Commit the first candidate of each non-trivial supergate (fresh
    // extraction per commit, as the engine's epoch discipline demands).
    int commits = 0;
    for (int round = 0; round < 8; ++round) {
      const GisgPartition& part = engine.partition();
      EngineMove move;
      bool found = false;
      for (std::size_t s = 0; s < part.sgs.size() && !found; ++s) {
        if (part.sgs[s].is_trivial()) continue;
        const auto cands = enumerate_swaps(part, static_cast<int>(s), net);
        // Prefer cross-gate swaps: same-gate pin swaps re-normalize to the
        // identical encoding (proved structurally even at budget 0) and
        // would make the inconclusive assertion vacuous.
        for (std::size_t i = 0; i < cands.size() && !found; ++i) {
          const std::size_t j = (i + static_cast<std::size_t>(round)) % cands.size();
          if (cands[j].pin_a.gate != cands[j].pin_b.gate) {
            move = EngineMove::swap(cands[j]);
            found = true;
          }
        }
        if (!found && !cands.empty()) {
          move = EngineMove::swap(cands[static_cast<std::size_t>(round) %
                                        cands.size()]);
          found = true;
        }
      }
      if (!found) break;
      engine.commit(move);
      ++commits;
    }
    ASSERT_GT(commits, 0);

    const auto& verdicts = engine.paranoid_verdicts();
    ASSERT_EQ(verdicts.size(), engine.paranoid_moves_checked());
    std::uint64_t proved = 0, inconclusive = 0;
    for (const ProofVerdict v : verdicts) {
      if (v == ProofVerdict::Inconclusive) {
        ++inconclusive;
      } else {
        ++proved;
      }
    }
    EXPECT_EQ(inconclusive, engine.paranoid_inconclusive());
    EXPECT_EQ(proved + inconclusive, engine.paranoid_moves_checked());
    // With a zero budget c432's windows cannot all prove structurally.
    EXPECT_GT(inconclusive, 0u) << (session ? "session" : "per-move");

    // Rejected moves were rolled back: whatever was kept is equivalent.
    const EquivalenceResult eq = check_equivalence(golden, net);
    EXPECT_TRUE(eq.equivalent) << (session ? "session" : "per-move");
  }
}

// --- full-flow differential (slow tier) -------------------------------------

class ParanoidSessionFlowSlow : public ::testing::TestWithParam<const char*> {};

TEST_P(ParanoidSessionFlowSlow, SessionMatchesPerMoveSolverMoveForMove) {
  // Acceptance property: `flow --paranoid` in session mode proves the same
  // move set as per-move-solver mode — move-for-move identical verdicts,
  // identical netlists — while encoding fewer gates in total.
  const CellLibrary& lib = rapids::testing::lib035();
  FlowOptions options;
  options.opt.paranoid = true;
  const PreparedCircuit prepared = prepare_benchmark(GetParam(), lib, options);

  options.opt.sat_session = true;
  const ModeRun with_session = run_mode(prepared, lib, OptMode::GsgPlusGS, options);
  options.opt.sat_session = false;
  const ModeRun per_move = run_mode(prepared, lib, OptMode::GsgPlusGS, options);

  EXPECT_TRUE(with_session.verified);
  EXPECT_TRUE(per_move.verified);
  EXPECT_EQ(blif_of(with_session.optimized), blif_of(per_move.optimized));
  EXPECT_EQ(with_session.result.paranoid_verdicts, per_move.result.paranoid_verdicts);
  EXPECT_EQ(with_session.result.moves_proved, per_move.result.moves_proved);
  EXPECT_GT(with_session.result.moves_proved, 0u);
  // The headline: the session re-encodes less than windows-from-scratch.
  EXPECT_LT(with_session.result.metrics.counter("proof.gates_encoded"),
            per_move.result.metrics.counter("proof.gates_encoded"));
}

INSTANTIATE_TEST_SUITE_P(Table1, ParanoidSessionFlowSlow,
                         ::testing::Values("alu2", "c432", "c499"));

TEST(ParanoidSessionFlowSlow, ThreadsStayBitIdenticalInSessionMode) {
  // Session mode with per-worker sessions must keep the parallel
  // determinism contract: --threads N bit-identical to --threads 1.
  const CellLibrary& lib = rapids::testing::lib035();
  FlowOptions options;
  options.opt.paranoid = true;
  options.opt.sat_session = true;
  const PreparedCircuit prepared = prepare_benchmark("c499", lib, options);

  options.opt.threads = 1;
  const ModeRun serial = run_mode(prepared, lib, OptMode::GsgPlusGS, options);
  options.opt.threads = 3;
  const ModeRun parallel = run_mode(prepared, lib, OptMode::GsgPlusGS, options);

  EXPECT_TRUE(serial.verified);
  EXPECT_TRUE(parallel.verified);
  EXPECT_EQ(blif_of(serial.optimized), blif_of(parallel.optimized));
  EXPECT_EQ(serial.result.moves_proved, parallel.result.moves_proved);
  EXPECT_EQ(serial.result.paranoid_verdicts, parallel.result.paranoid_verdicts);
}

}  // namespace
}  // namespace rapids
