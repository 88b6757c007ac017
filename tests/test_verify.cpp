// Simulator, truth tables, equivalence checking.
#include <gtest/gtest.h>

#include "netlist/builder.hpp"
#include "test_helpers.hpp"
#include "verify/equivalence.hpp"
#include "verify/simulator.hpp"
#include "verify/truth_table.hpp"

namespace rapids {
namespace {

TEST(Simulator, EvaluatesSmallNetwork) {
  NetworkBuilder b;
  const GateId x = b.input("x"), y = b.input("y");
  const GateId g = b.and_({x, y});
  const GateId po = b.output("f", g);
  const Network net = b.take();

  Simulator sim(net);
  sim.run({0b1100, 0b1010});
  EXPECT_EQ(sim.value(g) & 0xF, 0b1000u);
  EXPECT_EQ(sim.value(po) & 0xF, 0b1000u);
}

TEST(Simulator, ConstantsAndInverters) {
  NetworkBuilder b;
  const GateId x = b.input("x");
  const GateId g = b.xor_({x, b.const1()});
  b.output("f", g);
  const Network net = b.take();
  Simulator sim(net);
  sim.run({0b01});
  EXPECT_EQ(sim.value(g) & 0b11, 0b10u);
}

TEST(Simulator, ExhaustiveBlockPatterns) {
  // With <=6 inputs, one block enumerates all assignments bitwise.
  NetworkBuilder b;
  const GateId x0 = b.input("x0"), x1 = b.input("x1");
  const GateId g = b.or_({x0, x1});
  b.output("f", g);
  const Network net = b.take();
  Simulator sim(net);
  sim.run_exhaustive_block(0);
  // Patterns 0..3 use bits 0..3: OR truth table 0,1,1,1 LSB-first.
  EXPECT_EQ(sim.value(g) & 0xF, 0b1110u);
}

TEST(Simulator, SignatureStableAndSensitive) {
  const Network a = rapids::testing::random_mapped_network(31);
  EXPECT_EQ(output_signature(a, 99), output_signature(a, 99));
  const Network c = rapids::testing::random_mapped_network(32);
  EXPECT_NE(output_signature(a, 99), output_signature(c, 99));
}

TEST(Simulator, AgreesWithTruthTableOnAllSmallNetworks) {
  // Property: on every generated <= 6-PI network, the bit-parallel
  // simulator and the cofactor-based truth-table evaluator agree on EVERY
  // primary output at EVERY assignment (both claim exactness; any
  // disagreement means one oracle is broken).
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const int pis = 2 + static_cast<int>(seed % 5);  // 2..6
    const Network net =
        rapids::testing::random_mapped_network(seed * 31 + 7, pis, 25, 4);
    const std::size_t n = net.primary_inputs().size();
    ASSERT_LE(n, 6u);
    Simulator sim(net);
    sim.run_exhaustive_block(0);
    for (const GateId po : net.primary_outputs()) {
      const TruthTable6 tt = truth_table_of(net, net.po_driver(po));
      for (std::uint64_t m = 0; m < (1ULL << n); ++m) {
        ASSERT_EQ((sim.value(po) >> m) & 1ULL, tt.value_at(m) ? 1ULL : 0ULL)
            << "seed " << seed << " output " << net.name(po) << " assignment " << m;
      }
    }
  }
}

TEST(Simulator, StructuralEditAfterConstructionIsCaught) {
  // Regression for the stale-snapshot footgun: a Simulator captures the
  // topological order at construction; running it after a structural edit
  // must assert instead of silently evaluating in a stale order.
  NetworkBuilder b;
  const GateId x = b.input("x"), y = b.input("y");
  const GateId g = b.and_({x, y});
  b.output("f", g);
  Network net = b.take();

  Simulator sim(net);
  sim.run({0b01, 0b11});  // fine: no edits yet

  const GateId inv = net.add_gate(GateType::Inv);
  net.add_fanin(inv, x);
  net.set_fanin(Pin{g, 1}, inv);
  EXPECT_THROW(sim.run({0b01, 0b11}), InternalError);

  // A fresh simulator sees the edited network correctly: g is now
  // AND(x, INV(x)) == constant 0.
  Simulator fresh(net);
  fresh.run({0b01, 0b11});
  EXPECT_EQ(fresh.value(g) & 0b11, 0b00u);
}

TEST(Simulator, NonStructuralEditsDoNotTripTheEpoch) {
  // set_type / set_cell keep the topology; the captured order stays valid
  // and the simulator reads types live, so these must NOT assert.
  NetworkBuilder b;
  const GateId x = b.input("x"), y = b.input("y");
  const GateId g = b.and_({x, y});
  b.output("f", g);
  Network net = b.take();
  Simulator sim(net);
  net.set_type(g, GateType::Or);
  sim.run({0b0011, 0b0101});
  EXPECT_EQ(sim.value(g) & 0xF, 0b0111u);
}

TEST(TruthTable, VariableAndConstant) {
  const TruthTable6 x0 = TruthTable6::variable(2, 0);
  EXPECT_EQ(x0.to_string(), "0101");
  const TruthTable6 one = TruthTable6::constant(2, true);
  EXPECT_EQ(one.to_string(), "1111");
}

TEST(TruthTable, CofactorsOfAnd) {
  // f = x0 & x1 over 2 vars (bit m set iff both variable bits of m are 1).
  const TruthTable6 f(2, 0b1000);
  // f|x0=1 == x1, whose projection string (assignments 00,01,10,11) is 0011.
  EXPECT_EQ(f.cofactor(0, true).to_string(), "0011");
  EXPECT_EQ(f.cofactor(0, true), TruthTable6::variable(2, 1));
  EXPECT_EQ(f.cofactor(0, false).to_string(), "0000");  // f|x0=0 == 0
}

TEST(TruthTable, SwapVars) {
  // f = x0 & !x1 -> swap -> x1 & !x0.
  const TruthTable6 f(2, 0b0010);
  EXPECT_EQ(f.swap_vars(0, 1).bits(), 0b0100u);
}

TEST(TruthTable, NesEsOnKnownFunctions) {
  // AND: NES yes, ES no.
  const TruthTable6 andf(2, 0b1000);
  EXPECT_TRUE(andf.nes(0, 1));
  EXPECT_FALSE(andf.es(0, 1));
  // x & !y: NES no, ES yes.
  const TruthTable6 angy(2, 0b0010);
  EXPECT_FALSE(angy.nes(0, 1));
  EXPECT_TRUE(angy.es(0, 1));
  // XOR: both.
  const TruthTable6 xorf(2, 0b0110);
  EXPECT_TRUE(xorf.nes(0, 1));
  EXPECT_TRUE(xorf.es(0, 1));
}

TEST(TruthTable, DependsOn) {
  const TruthTable6 f(3, 0b10101010);  // f = x0 over 3 vars
  EXPECT_FALSE(f.depends_on(1));
  EXPECT_FALSE(f.depends_on(2));
  // Note: 0b10101010 has bit m set iff m odd -> f == x0 indeed.
  EXPECT_TRUE(f.depends_on(0));
}

TEST(TruthTable, SixVariableTableReadsTopAssignment) {
  // Six variables use every bit of the word: reading assignment 63 must not
  // shift by the word width on the way to the range check.
  const TruthTable6 x5 = TruthTable6::variable(6, 5);
  EXPECT_TRUE(x5.value_at(63));
  EXPECT_FALSE(x5.value_at(31));
  EXPECT_TRUE(TruthTable6::constant(6, true).value_at(63));
  EXPECT_FALSE(TruthTable6::constant(6, false).value_at(63));
}

TEST(TruthTable, OfNetworkMatchesSimulation) {
  NetworkBuilder b;
  const GateId x0 = b.input("x0"), x1 = b.input("x1"), x2 = b.input("x2");
  const GateId g = b.or_({b.and_({x0, x1}), x2});
  b.output("f", g);
  const Network net = b.take();
  const TruthTable6 tt = truth_table_of(net, g);
  for (std::uint64_t m = 0; m < 8; ++m) {
    const bool expect = (((m >> 0) & 1) && ((m >> 1) & 1)) || ((m >> 2) & 1);
    EXPECT_EQ(tt.value_at(m), expect) << "assignment " << m;
  }
}

TEST(Equivalence, IdentityIsEquivalent) {
  const Network net = rapids::testing::random_mapped_network(41);
  const EquivalenceResult r = check_equivalence(net, net.clone());
  EXPECT_TRUE(r.equivalent);
  EXPECT_TRUE(r.exhaustive);  // 12 inputs <= default exhaustive limit
}

TEST(Equivalence, DetectsSingleGateChange) {
  Network a = rapids::testing::random_mapped_network(43);
  Network b = a.clone();
  // Flip one gate type to its complement: function must differ somewhere.
  for (const GateId g : b.gates()) {
    if (is_logic(b.type(g)) && b.fanout_count(g) > 0 &&
        is_multi_input(b.type(g))) {
      b.set_type(g, inverted_type(b.type(g)));
      break;
    }
  }
  EXPECT_FALSE(check_equivalence(a, b).equivalent);
}

TEST(Equivalence, MatchesByNameNotOrder) {
  NetworkBuilder b1;
  const GateId x = b1.input("x"), y = b1.input("y");
  b1.output("f", b1.and_({x, y}));
  const Network n1 = b1.take();

  NetworkBuilder b2;  // inputs declared in the other order
  const GateId y2 = b2.input("y"), x2 = b2.input("x");
  b2.output("f", b2.and_({x2, y2}));
  const Network n2 = b2.take();

  EXPECT_TRUE(check_equivalence(n1, n2).equivalent);

  NetworkBuilder b3;  // actually different function
  const GateId y3 = b3.input("y"), x3 = b3.input("x");
  b3.output("f", b3.and_({b3.inv(x3), y3}));
  const Network n3 = b3.take();
  EXPECT_FALSE(check_equivalence(n1, n3).equivalent);
}

TEST(Equivalence, InterfaceMismatchThrows) {
  NetworkBuilder b1;
  b1.output("f", b1.inv(b1.input("x")));
  const Network n1 = b1.take();
  NetworkBuilder b2;
  b2.output("f", b2.inv(b2.input("zzz")));
  const Network n2 = b2.take();
  EXPECT_THROW((void)check_equivalence(n1, n2), InputError);
}

TEST(Equivalence, RandomModeOnWideInterface) {
  // 20 inputs exceeds the default exhaustive limit -> random sampling.
  NetworkBuilder b1;
  std::vector<GateId> xs;
  for (int i = 0; i < 20; ++i) xs.push_back(b1.input("x" + std::to_string(i)));
  b1.output("f", b1.tree(GateType::Xor, xs, 2));
  const Network n1 = b1.take();

  NetworkBuilder b2;
  std::vector<GateId> ys;
  for (int i = 0; i < 20; ++i) ys.push_back(b2.input("x" + std::to_string(i)));
  std::reverse(ys.begin(), ys.end());  // XOR is symmetric: still equivalent
  b2.output("f", b2.tree(GateType::Xor, ys, 2));
  const Network n2 = b2.take();

  const EquivalenceResult r = check_equivalence(n1, n2);
  EXPECT_TRUE(r.equivalent);
  EXPECT_FALSE(r.exhaustive);
  EXPECT_GT(r.patterns, 1000u);
}

}  // namespace
}  // namespace rapids
