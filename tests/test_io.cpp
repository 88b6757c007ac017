// IO round trips: BLIF, ISCAS bench, placement.
#include <gtest/gtest.h>

#include <sstream>

#include "io/bench_reader.hpp"
#include "io/bench_writer.hpp"
#include "io/blif_reader.hpp"
#include "io/blif_writer.hpp"
#include "io/placement_io.hpp"
#include "netlist/builder.hpp"
#include "netlist/validate.hpp"
#include "place/placer.hpp"
#include "test_helpers.hpp"
#include "verify/equivalence.hpp"

namespace rapids {
namespace {

using rapids::testing::lib035;
using rapids::testing::random_mapped_network;

TEST(Blif, ParsesSimpleSop) {
  std::stringstream ss(
      ".model tiny\n"
      ".inputs a b c\n"
      ".outputs f\n"
      ".names a b c f\n"
      "11- 1\n"
      "--1 1\n"
      ".end\n");
  const Network net = read_blif(ss);
  validate_or_throw(net);
  EXPECT_EQ(net.primary_inputs().size(), 3u);
  EXPECT_EQ(net.primary_outputs().size(), 1u);

  // f = ab + c
  NetworkBuilder b;
  const GateId a = b.input("a"), bb = b.input("b"), c = b.input("c");
  b.output("f", b.or_({b.and_({a, bb}), c}));
  EXPECT_TRUE(check_equivalence(b.net(), net).equivalent);
}

TEST(Blif, ZeroCoverIsComplement) {
  std::stringstream ss(
      ".model tiny\n.inputs a b\n.outputs f\n"
      ".names a b f\n"
      "11 0\n"
      ".end\n");
  const Network net = read_blif(ss);
  NetworkBuilder b;
  const GateId a = b.input("a"), bb = b.input("b");
  b.output("f", b.nand({a, bb}));
  EXPECT_TRUE(check_equivalence(b.net(), net).equivalent);
}

TEST(Blif, ConstantsAndContinuation) {
  std::stringstream ss(
      ".model k\n.inputs a\n.outputs f g h\n"
      ".names one\n1\n"
      ".names zero\n"
      ".names a one \\\nf\n11 1\n"
      ".names g\n1\n"
      ".names zero a h\n01 1\n"
      ".end\n");
  const Network net = read_blif(ss);
  validate_or_throw(net);
  // f == a, g == 1, h == a.
  NetworkBuilder b;
  const GateId a = b.input("a");
  b.output("f", b.buf(a));
  b.output("g", b.const1());
  b.output("h", b.buf(a));
  EXPECT_TRUE(check_equivalence(b.net(), net).equivalent);
}

TEST(Blif, LatchesBecomePseudoIo) {
  std::stringstream ss(
      ".model seq\n.inputs a\n.outputs f\n"
      ".latch nq q 0\n"
      ".names a q f\n11 1\n"
      ".names f nq\n1 1\n"
      ".end\n");
  const Network net = read_blif(ss);
  validate_or_throw(net);
  EXPECT_EQ(net.primary_inputs().size(), 2u);   // a + pseudo-PI q
  EXPECT_EQ(net.primary_outputs().size(), 2u);  // f + pseudo-PO q$next
}

TEST(Blif, RoundTripRandomNetworks) {
  for (const std::uint64_t seed : {61u, 62u, 63u}) {
    const Network net = random_mapped_network(seed);
    std::stringstream ss;
    write_blif(net, ss);
    const Network back = read_blif(ss);
    validate_or_throw(back);
    EXPECT_TRUE(check_equivalence(net, back).equivalent) << "seed " << seed;
  }
}

TEST(Blif, ErrorsAreReported) {
  std::stringstream bad1("11 1\n");  // cover row outside .names
  EXPECT_THROW((void)read_blif(bad1), InputError);
  std::stringstream bad2(".model m\n.inputs a\n.outputs f\n.names a f\n111 1\n.end\n");
  EXPECT_THROW((void)read_blif(bad2), InputError);
  std::stringstream bad3(".model m\n.inputs a\n.outputs nope\n.end\n");
  EXPECT_THROW((void)read_blif(bad3), InputError);
}

/// read_blif must reject `text` with an InputError naming `line`.
void expect_blif_rejected_at(const std::string& text, int line) {
  std::stringstream ss(text);
  try {
    (void)read_blif(ss);
    ADD_FAILURE() << "accepted:\n" << text;
  } catch (const InputError& e) {
    EXPECT_NE(std::string(e.what()).find("blif line " + std::to_string(line) + ":"),
              std::string::npos)
        << e.what();
  }
}

TEST(Blif, RejectsCoverMaskCharacterOutsideZeroOneDash) {
  // Used to build y as constant 1: '2' was read as a don't-care.
  expect_blif_rejected_at(".model m\n.inputs a\n.outputs y\n.names a y\n2 1\n.end\n", 5);
}

TEST(Blif, RejectsCoverOutputValueOutsideZeroOne) {
  // Used to build y = NOT a: any value but "1" was read as the off-set.
  expect_blif_rejected_at(".model m\n.inputs a\n.outputs y\n.names a y\n1 x\n.end\n", 5);
  // Constant blocks validate their value too.
  expect_blif_rejected_at(".model m\n.outputs y\n.names y\n2\n.end\n", 4);
}

TEST(Blif, RejectsCoverRowsMixingOutputValues) {
  // Used to build y = a XOR b: the last row's value applied to every row.
  expect_blif_rejected_at(
      ".model m\n.inputs a b\n.outputs y\n.names a b y\n11 1\n00 0\n.end\n", 6);
}

TEST(Bench, ParsesIscasStyle) {
  std::stringstream ss(
      "# c-example\n"
      "INPUT(a)\nINPUT(b)\nOUTPUT(f)\n"
      "n1 = NAND(a, b)\n"
      "f = NOT(n1)\n");
  const Network net = read_bench(ss);
  validate_or_throw(net);
  NetworkBuilder b;
  const GateId a = b.input("a"), bb = b.input("b");
  b.output("f", b.inv(b.nand({a, bb})));
  EXPECT_TRUE(check_equivalence(b.net(), net).equivalent);
}

TEST(Bench, DffCutIntoPseudoIo) {
  std::stringstream ss(
      "INPUT(a)\nOUTPUT(f)\n"
      "q = DFF(d)\n"
      "f = AND(a, q)\n"
      "d = NOT(f)\n");
  const Network net = read_bench(ss);
  validate_or_throw(net);
  EXPECT_EQ(net.primary_inputs().size(), 2u);
  EXPECT_EQ(net.primary_outputs().size(), 2u);
}

TEST(Bench, RoundTripRandomNetworks) {
  for (const std::uint64_t seed : {71u, 72u, 73u}) {
    const Network net = random_mapped_network(seed);
    std::stringstream ss;
    write_bench(net, ss);
    const Network back = read_bench(ss);
    validate_or_throw(back);
    EXPECT_TRUE(check_equivalence(net, back).equivalent) << "seed " << seed;
  }
}

TEST(Bench, UnknownSignalRejected) {
  std::stringstream ss("INPUT(a)\nOUTPUT(f)\nf = AND(a, ghost)\n");
  EXPECT_THROW((void)read_bench(ss), InputError);
}

/// read_bench must reject `text` with an InputError naming `line`.
void expect_bench_rejected_at(const std::string& text, int line) {
  std::stringstream ss(text);
  try {
    (void)read_bench(ss);
    ADD_FAILURE() << "accepted:\n" << text;
  } catch (const InputError& e) {
    EXPECT_NE(std::string(e.what()).find("bench line " + std::to_string(line) + ":"),
              std::string::npos)
        << e.what();
  }
}

TEST(Bench, RejectsRedefinedGate) {
  // Used to keep the last definition: y silently became OR.
  expect_bench_rejected_at(
      "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\ny = OR(a, b)\n", 5);
}

TEST(Bench, RejectsGateShadowingPrimaryInput) {
  // Used to shadow input a, so y = AND(a, b) became constant 0.
  expect_bench_rejected_at(
      "INPUT(a)\nINPUT(b)\nOUTPUT(y)\na = NOT(b)\ny = AND(a, b)\n", 4);
}

TEST(Bench, RejectsSingleInputGateWithTwoInputs) {
  // Used to drop b silently.
  expect_bench_rejected_at("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NOT(a, b)\n", 4);
}

TEST(Bench, RejectsGateWithoutInputs) {
  // Used to build y as constant 1.
  expect_bench_rejected_at("INPUT(a)\nOUTPUT(y)\ny = AND()\n", 3);
}

TEST(Bench, RejectsDffWithTwoInputs) {
  // Used to throw InternalError from an assert.
  expect_bench_rejected_at(
      "INPUT(a)\nINPUT(b)\nOUTPUT(y)\nq = DFF(a, b)\ny = AND(a, q)\n", 4);
}

TEST(Bench, RejectsMisspelledKeywordAndTrailingText) {
  // INPUTS(a) used to be read as INPUT(a); text after ')' was ignored.
  expect_bench_rejected_at("INPUTS(a)\nOUTPUT(a)\n", 1);
  expect_bench_rejected_at("INPUT(a) junk\nOUTPUT(y)\ny = NOT(a)\n", 1);
  expect_bench_rejected_at("INPUT(a)\nOUTPUT(y)\ny = NOT(a) junk\n", 3);
}

TEST(PlacementIo, RoundTrip) {
  const Network net = rapids::testing::mapped(random_mapped_network(81));
  PlacerOptions popt;
  popt.effort = 1.0;
  popt.num_temps = 4;
  const Placement pl = place(net, lib035(), popt);

  std::stringstream ss;
  write_placement(net, pl, ss);
  const Placement back = read_placement(net, ss);

  EXPECT_NEAR(back.die().width, pl.die().width, 1e-9);
  EXPECT_EQ(back.die().num_rows, pl.die().num_rows);
  net.for_each_gate([&](GateId g) {
    ASSERT_EQ(back.is_placed(g), pl.is_placed(g)) << net.name(g);
    if (pl.is_placed(g)) {
      EXPECT_NEAR(back.at(g).x, pl.at(g).x, 1e-9);
      EXPECT_NEAR(back.at(g).y, pl.at(g).y, 1e-9);
    }
  });
}

TEST(PlacementIo, UnknownGateRejected) {
  const Network net = random_mapped_network(83);
  std::stringstream ss("cell bogus_gate_name 1.0 2.0\n");
  EXPECT_THROW((void)read_placement(net, ss), InputError);
}

}  // namespace
}  // namespace rapids
