// Tests for generalized implication supergate extraction (paper §3).
#include <gtest/gtest.h>

#include <set>

#include "netlist/builder.hpp"
#include "netlist/topo.hpp"
#include "sym/gisg.hpp"
#include "sym/implication.hpp"
#include "test_helpers.hpp"

namespace rapids {
namespace {

using testing::random_mapped_network;
using testing::random_tree;

// --- backward implication primitives (§2) ----------------------------------

TEST(Implication, AndFiresOnOne) {
  const BackwardStep s = backward_implication(GateType::And, 1);
  EXPECT_TRUE(s.fires);
  EXPECT_EQ(s.pin_value, 1);
  EXPECT_FALSE(backward_implication(GateType::And, 0).fires);
}

TEST(Implication, NandFiresOnZero) {
  const BackwardStep s = backward_implication(GateType::Nand, 0);
  EXPECT_TRUE(s.fires);
  EXPECT_EQ(s.pin_value, 1);
  EXPECT_FALSE(backward_implication(GateType::Nand, 1).fires);
}

TEST(Implication, OrFiresOnZero) {
  const BackwardStep s = backward_implication(GateType::Or, 0);
  EXPECT_TRUE(s.fires);
  EXPECT_EQ(s.pin_value, 0);
  EXPECT_FALSE(backward_implication(GateType::Or, 1).fires);
}

TEST(Implication, NorFiresOnOne) {
  const BackwardStep s = backward_implication(GateType::Nor, 1);
  EXPECT_TRUE(s.fires);
  EXPECT_EQ(s.pin_value, 0);
  EXPECT_FALSE(backward_implication(GateType::Nor, 0).fires);
}

TEST(Implication, InvBufAlwaysFire) {
  EXPECT_EQ(backward_implication(GateType::Inv, 1).pin_value, 0);
  EXPECT_EQ(backward_implication(GateType::Inv, 0).pin_value, 1);
  EXPECT_EQ(backward_implication(GateType::Buf, 1).pin_value, 1);
  EXPECT_EQ(backward_implication(GateType::Buf, 0).pin_value, 0);
}

TEST(Implication, XorNeverFires) {
  EXPECT_FALSE(backward_implication(GateType::Xor, 0).fires);
  EXPECT_FALSE(backward_implication(GateType::Xor, 1).fires);
  EXPECT_FALSE(backward_implication(GateType::Xnor, 0).fires);
  EXPECT_FALSE(backward_implication(GateType::Xnor, 1).fires);
}

// --- single supergate shapes ------------------------------------------------

TEST(Gisg, PureAndTreeIsOneSupergate) {
  NetworkBuilder b;
  const GateId x0 = b.input("x0"), x1 = b.input("x1"), x2 = b.input("x2"),
               x3 = b.input("x3");
  const GateId lo = b.and_({x0, x1});
  const GateId hi = b.and_({x2, x3});
  const GateId root = b.and_({lo, hi});
  b.output("f", root);
  const Network net = b.take();

  const GisgPartition part = extract_gisg(net);
  ASSERT_EQ(part.sgs.size(), 1u);
  const SuperGate& sg = part.sgs[0];
  EXPECT_EQ(sg.root, root);
  EXPECT_EQ(sg.type, SgType::AndOr);
  EXPECT_EQ(sg.root_fn, GateType::And);
  EXPECT_EQ(sg.covered.size(), 3u);
  EXPECT_EQ(sg.num_leaves, 4);
  for (const CoveredPin& cp : sg.pins) EXPECT_EQ(cp.imp_value, 1);
}

TEST(Gisg, AndAbsorbsNorViaDeMorgan) {
  // AND(x, NOR(y, z)) = x & !y & !z — one AND supergate, leaf values 1,0,0.
  NetworkBuilder b;
  const GateId x = b.input("x"), y = b.input("y"), z = b.input("z");
  const GateId nor = b.nor({y, z});
  const GateId root = b.and_({x, nor});
  b.output("f", root);
  const Network net = b.take();

  const GisgPartition part = extract_gisg(net);
  ASSERT_EQ(part.sgs.size(), 1u);
  const SuperGate& sg = part.sgs[0];
  EXPECT_EQ(sg.type, SgType::AndOr);
  EXPECT_EQ(sg.num_leaves, 3);
  std::multiset<int> leaf_values;
  for (const CoveredPin& cp : sg.pins) {
    if (cp.leaf) leaf_values.insert(cp.imp_value);
  }
  EXPECT_EQ(leaf_values, (std::multiset<int>{0, 0, 1}));
}

TEST(Gisg, AndDoesNotAbsorbNand) {
  // AND(x, NAND(y, z)): the NAND's output value 1 does not trigger backward
  // implication, so the NAND roots its own supergate.
  NetworkBuilder b;
  const GateId x = b.input("x"), y = b.input("y"), z = b.input("z");
  const GateId nand = b.nand({y, z});
  const GateId root = b.and_({x, nand});
  b.output("f", root);
  const Network net = b.take();

  const GisgPartition part = extract_gisg(net);
  ASSERT_EQ(part.sgs.size(), 2u);
  EXPECT_EQ(part.sg_of_gate[nand] != part.sg_of_gate[root], true);
}

TEST(Gisg, XorChainIsOneSupergate) {
  NetworkBuilder b;
  const GateId x0 = b.input("x0"), x1 = b.input("x1"), x2 = b.input("x2"),
               x3 = b.input("x3");
  const GateId a = b.xor_({x0, x1});
  const GateId c = b.xnor({a, x2});
  const GateId root = b.xor_({c, x3});
  b.output("f", root);
  const Network net = b.take();

  const GisgPartition part = extract_gisg(net);
  ASSERT_EQ(part.sgs.size(), 1u);
  EXPECT_EQ(part.sgs[0].type, SgType::Xor);
  EXPECT_EQ(part.sgs[0].num_leaves, 4);
}

TEST(Gisg, XorAbsorbsInverters) {
  NetworkBuilder b;
  const GateId x = b.input("x"), y = b.input("y");
  const GateId root = b.xor_({b.inv(x), y});
  b.output("f", root);
  const Network net = b.take();

  const GisgPartition part = extract_gisg(net);
  ASSERT_EQ(part.sgs.size(), 1u);
  EXPECT_EQ(part.sgs[0].type, SgType::Xor);
  EXPECT_EQ(part.sgs[0].covered.size(), 2u);
  EXPECT_EQ(part.sgs[0].num_leaves, 2);
}

TEST(Gisg, MultiFanoutStopsAbsorption) {
  // The AND below the root has two fanouts; it must root its own supergate.
  NetworkBuilder b;
  const GateId x = b.input("x"), y = b.input("y"), z = b.input("z");
  const GateId shared = b.and_({x, y});
  const GateId f = b.and_({shared, z});
  const GateId g = b.or_({shared, z});
  b.output("f", f);
  b.output("g", g);
  const Network net = b.take();

  const GisgPartition part = extract_gisg(net);
  ASSERT_EQ(part.sgs.size(), 3u);
  EXPECT_NE(part.sg_of_gate[shared], part.sg_of_gate[f]);
  EXPECT_NE(part.sg_of_gate[shared], part.sg_of_gate[g]);
}

TEST(Gisg, InvChainRootLooksThrough) {
  // INV(INV(AND(x,y))) rooted at the top inverter: the whole chain plus the
  // AND forms one AND-type supergate.
  NetworkBuilder b;
  const GateId x = b.input("x"), y = b.input("y");
  const GateId a = b.and_({x, y});
  const GateId i1 = b.inv(a);
  const GateId i2 = b.inv(i1);
  b.output("f", i2);
  const Network net = b.take();

  const GisgPartition part = extract_gisg(net);
  ASSERT_EQ(part.sgs.size(), 1u);
  EXPECT_EQ(part.sgs[0].root, i2);
  EXPECT_EQ(part.sgs[0].type, SgType::AndOr);
  EXPECT_EQ(part.sgs[0].covered.size(), 3u);
  EXPECT_EQ(part.sgs[0].num_leaves, 2);
}

TEST(Gisg, TrivialChainToInput) {
  NetworkBuilder b;
  const GateId x = b.input("x");
  const GateId i1 = b.inv(x);
  b.output("f", i1);
  const Network net = b.take();

  const GisgPartition part = extract_gisg(net);
  ASSERT_EQ(part.sgs.size(), 1u);
  EXPECT_EQ(part.sgs[0].type, SgType::Trivial);
  EXPECT_TRUE(part.sgs[0].is_trivial());
}

TEST(Gisg, Figure2Supergate) {
  // Fig. 2: an OR-rooted structure where pins h and k have equal implied
  // values. We model f = OR(h, AND-side) in spirit: f = NOR(a, OR(h, k)).
  // ncv(OR)=0: both h and k receive implied value 0.
  NetworkBuilder b;
  const GateId a = b.input("a"), h = b.input("h"), k = b.input("k");
  const GateId inner = b.or_({h, k});
  const GateId root = b.nor({a, inner});
  b.output("f", root);
  const Network net = b.take();

  const GisgPartition part = extract_gisg(net);
  ASSERT_EQ(part.sgs.size(), 1u);
  const SuperGate& sg = part.sgs[0];
  EXPECT_EQ(sg.type, SgType::AndOr);
  EXPECT_EQ(sg.num_leaves, 3);
  for (const CoveredPin& cp : sg.pins) {
    if (cp.leaf) {
      EXPECT_EQ(cp.imp_value, 0);
    }
  }
}

// --- partition invariants (property tests) --------------------------------

class GisgPartitionProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GisgPartitionProperty, EveryLogicGateCoveredExactlyOnce) {
  const Network net = random_mapped_network(GetParam());
  const GisgPartition part = extract_gisg(net);
  std::vector<int> covered_count(net.id_bound(), 0);
  for (const SuperGate& sg : part.sgs) {
    for (const GateId g : sg.covered) ++covered_count[g];
  }
  net.for_each_gate([&](GateId g) {
    if (is_logic(net.type(g))) {
      EXPECT_EQ(covered_count[g], 1) << "gate " << net.name(g);
    } else {
      EXPECT_EQ(covered_count[g], 0) << "gate " << net.name(g);
    }
  });
}

TEST_P(GisgPartitionProperty, SgOfGateMatchesCoverage) {
  const Network net = random_mapped_network(GetParam());
  const GisgPartition part = extract_gisg(net);
  for (std::size_t s = 0; s < part.sgs.size(); ++s) {
    for (const GateId g : part.sgs[s].covered) {
      EXPECT_EQ(part.sg_of_gate[g], static_cast<std::int32_t>(s));
    }
  }
}

TEST_P(GisgPartitionProperty, CoveredGatesAreSingleFanoutExceptRoot) {
  const Network net = random_mapped_network(GetParam());
  const GisgPartition part = extract_gisg(net);
  for (const SuperGate& sg : part.sgs) {
    for (const GateId g : sg.covered) {
      if (g != sg.root) {
        EXPECT_EQ(net.fanout_count(g), 1u);
      }
    }
  }
}

TEST_P(GisgPartitionProperty, LeafDriversAreOutsideTheSupergate) {
  const Network net = random_mapped_network(GetParam());
  const GisgPartition part = extract_gisg(net);
  for (std::size_t s = 0; s < part.sgs.size(); ++s) {
    for (const CoveredPin& cp : part.sgs[s].pins) {
      const std::int32_t owner =
          cp.driver < part.sg_of_gate.size() ? part.sg_of_gate[cp.driver] : -1;
      if (cp.leaf) {
        EXPECT_NE(owner, static_cast<std::int32_t>(s));
      } else {
        EXPECT_EQ(owner, static_cast<std::int32_t>(s));
      }
    }
  }
}

TEST_P(GisgPartitionProperty, AndOrPinValuesMatchNcv) {
  // Every covered in-pin of a multi-input AND/OR-family gate must carry
  // that gate's non-controlling value.
  const Network net = random_mapped_network(GetParam());
  const GisgPartition part = extract_gisg(net);
  for (const SuperGate& sg : part.sgs) {
    if (sg.type != SgType::AndOr) continue;
    for (const CoveredPin& cp : sg.pins) {
      const GateType t = net.type(cp.pin.gate);
      if (has_controlling_value(t)) {
        EXPECT_EQ(cp.imp_value, non_controlling_value(t));
      }
    }
  }
}

TEST_P(GisgPartitionProperty, PinDepthsAreConsistent) {
  const Network net = random_mapped_network(GetParam());
  const GisgPartition part = extract_gisg(net);
  for (const SuperGate& sg : part.sgs) {
    for (const CoveredPin& cp : sg.pins) {
      EXPECT_GE(cp.depth, 1);
      EXPECT_LE(cp.depth, static_cast<int>(sg.covered.size()));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GisgPartitionProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

// --- fanout-free trees: Theorem 1 completeness -----------------------------

class GisgTreeProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GisgTreeProperty, TreeWithoutXorBoundariesMergesAggressively) {
  // In a fanout-free tree every gate is covered by some supergate, and
  // supergates only break at implication stops (AND|OR boundary or XOR).
  NetworkBuilder b;
  Rng rng(GetParam());
  const GateId root = random_tree(b, rng, 4, 3);
  b.output("f", root);
  const Network net = b.take();

  const GisgPartition part = extract_gisg(net);
  std::size_t covered = 0;
  for (const SuperGate& sg : part.sgs) covered += sg.covered.size();
  EXPECT_EQ(covered, net.num_logic_gates());
}

INSTANTIATE_TEST_SUITE_P(Seeds, GisgTreeProperty,
                         ::testing::Values(101, 202, 303, 404, 505, 606, 707, 808));

// --- statistics -------------------------------------------------------------

TEST(GisgStats, CoverageAndMaxLeaves) {
  NetworkBuilder b;
  std::vector<GateId> xs;
  for (int i = 0; i < 8; ++i) xs.push_back(b.input("x" + std::to_string(i)));
  const GateId big = b.tree(GateType::And, xs, 2);  // 7 covered AND gates
  b.output("f", big);
  const GateId lone = b.nand({xs[0], xs[1]});
  b.output("g", lone);  // trivial supergate (covers 1 gate)
  const Network net = b.take();

  const GisgPartition part = extract_gisg(net);
  EXPECT_EQ(part.max_leaves(), 8);
  // 7 of 8 logic gates covered by the non-trivial supergate.
  EXPECT_NEAR(part.nontrivial_coverage(net), 7.0 / 8.0, 1e-9);
  EXPECT_EQ(part.num_nontrivial(), 1u);
}

TEST(GisgStats, LinearTouchCount) {
  // Extraction visits each gate once: supergate count + covered totals stay
  // linear in gates for a long chain.
  NetworkBuilder b;
  GateId cur = b.input("x");
  for (int i = 0; i < 500; ++i) {
    cur = b.and_({cur, b.input("y" + std::to_string(i))});
  }
  b.output("f", cur);
  const Network net = b.take();
  const GisgPartition part = extract_gisg(net);
  ASSERT_EQ(part.sgs.size(), 1u);
  EXPECT_EQ(part.sgs[0].covered.size(), 500u);
  EXPECT_EQ(part.sgs[0].num_leaves, 501);
}

}  // namespace
}  // namespace rapids
