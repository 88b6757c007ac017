// Placer: legality, determinism, golden coordinate bits, effort validation,
// wirelength behavior, die sizing.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <limits>

#include "gen/large.hpp"
#include "gen/suite.hpp"
#include "place/placer.hpp"
#include "place/wirelength.hpp"
#include "test_helpers.hpp"
#include "timing/sta.hpp"
#include "util/assert.hpp"

namespace rapids {
namespace {

using rapids::testing::lib035;
using rapids::testing::mapped;
using rapids::testing::random_mapped_network;

PlacerOptions fast_options(std::uint64_t seed = 1) {
  PlacerOptions o;
  o.seed = seed;
  o.effort = 2.0;
  o.num_temps = 8;
  return o;
}

TEST(Die, SizedForUtilization) {
  DieSpec spec;
  spec.target_utilization = 0.5;
  const Die die = make_die(10000.0, spec);
  EXPECT_NEAR(die.width * die.height, 10000.0 / 0.5, die.width * spec.row_height);
  EXPECT_GT(die.num_rows, 0);
}

TEST(Die, NearestRowClamped) {
  Die die;
  die.num_rows = 10;
  die.row_height = 10.0;
  die.height = 100.0;
  EXPECT_EQ(die.nearest_row(-5.0), 0);
  EXPECT_EQ(die.nearest_row(999.0), 9);
  EXPECT_EQ(die.nearest_row(35.0), 3);
}

TEST(Die, WiderThanTheWidestCell) {
  // Fuzzer regression: a 1-gate netlist mapped to a wide cell used to get a
  // die narrower than that single cell, and legalization had no legal row.
  DieSpec spec;
  const double cell_w = 126.15 / spec.row_height;  // XOR2_X2
  const Die die = make_die(126.15, spec, cell_w);
  EXPECT_GE(die.width, cell_w);
  EXPECT_GE(die.num_rows, 1);
}

TEST(Die, RowCapacityCoversBinPacking) {
  // Fuzzer regression: 3 cells of 14.6um across 2 rows of 24.3um fit
  // area-wise but not as whole cells. Every cell must have a row that can
  // take it under greedy assignment: (width - max_w) * rows >= total_width.
  DieSpec spec;
  const double max_w = 14.6115;
  const Die die = make_die(442.25, spec, max_w);
  const double total_width = 442.25 / spec.row_height;
  EXPECT_GE((die.width - max_w) * die.num_rows, total_width - 1e-9);
}

TEST(Placer, TinyNetlistsPlaceLegally) {
  // End-to-end version of the two regressions above: single-gate and
  // few-wide-cells networks must place without capacity asserts.
  for (const int gates : {1, 2, 3, 5}) {
    NetworkBuilder b;
    std::vector<GateId> pool;
    for (int i = 0; i < 4; ++i) pool.push_back(b.input("x" + std::to_string(i)));
    for (int i = 0; i < gates; ++i) {
      pool.push_back(b.xor_({pool[pool.size() - 2], pool[pool.size() - 1]}));
    }
    b.output("f", pool.back());
    const Network net = mapped(b.take());
    const Placement pl = place(net, lib035(), fast_options());
    const auto errors = check_legal(net, lib035(), pl);
    EXPECT_TRUE(errors.empty()) << gates << " gates: "
                                << (errors.empty() ? "" : errors.front());
  }
}

TEST(Placement, ManhattanDistance) {
  EXPECT_DOUBLE_EQ(manhattan(Point{0, 0}, Point{3, 4}), 7.0);
  EXPECT_DOUBLE_EQ(manhattan(Point{-1, 2}, Point{1, -2}), 6.0);
}

TEST(Placer, ResultIsLegal) {
  const Network net = mapped(random_mapped_network(11));
  const Placement pl = place(net, lib035(), fast_options());
  const auto errors = check_legal(net, lib035(), pl);
  EXPECT_TRUE(errors.empty()) << (errors.empty() ? "" : errors.front());
}

TEST(Placer, AllGatesPlaced) {
  const Network net = mapped(random_mapped_network(12));
  const Placement pl = place(net, lib035(), fast_options());
  net.for_each_gate([&](GateId g) { EXPECT_TRUE(pl.is_placed(g)) << net.name(g); });
}

TEST(Placer, DeterministicPerSeed) {
  const Network net = mapped(random_mapped_network(13));
  const Placement a = place(net, lib035(), fast_options(7));
  const Placement b = place(net, lib035(), fast_options(7));
  net.for_each_gate([&](GateId g) {
    EXPECT_DOUBLE_EQ(a.at(g).x, b.at(g).x);
    EXPECT_DOUBLE_EQ(a.at(g).y, b.at(g).y);
  });
}

TEST(Placer, SeedsProduceDifferentLayouts) {
  const Network net = mapped(random_mapped_network(14));
  const Placement a = place(net, lib035(), fast_options(1));
  const Placement b = place(net, lib035(), fast_options(2));
  bool any_diff = false;
  net.for_each_gate([&](GateId g) {
    if (is_logic(net.type(g)) &&
        (a.at(g).x != b.at(g).x || a.at(g).y != b.at(g).y)) {
      any_diff = true;
    }
  });
  EXPECT_TRUE(any_diff);
}

TEST(Placer, AnnealImprovesOverSeedPlacement) {
  const Network net = mapped(random_mapped_network(15, 16, 120, 10));
  PlacerOptions no_anneal = fast_options();
  no_anneal.num_temps = 0;
  const Placement rough = place(net, lib035(), no_anneal);
  const Placement tuned = place(net, lib035(), fast_options());
  EXPECT_LT(total_hpwl(net, tuned), total_hpwl(net, rough));
}

TEST(Placer, PadsOnBoundary) {
  const Network net = mapped(random_mapped_network(16));
  const Placement pl = place(net, lib035(), fast_options());
  for (const GateId pi : net.primary_inputs()) {
    EXPECT_LT(pl.at(pi).x, 0.0);  // left of core
  }
  for (const GateId po : net.primary_outputs()) {
    EXPECT_GT(pl.at(po).x, pl.die().width);  // right of core
  }
}

TEST(Wirelength, StarAtLeastHalfHpwlScale) {
  // Sanity relation on a simple 2-terminal net: star == manhattan == HPWL.
  NetworkBuilder b;
  const GateId x = b.input("x");
  const GateId g = b.net().add_gate(GateType::Inv);
  b.net().add_fanin(g, x);
  b.output("f", g);
  Network net = b.take();
  Placement pl(net.id_bound());
  net.for_each_gate([&](GateId gg) { pl.set(gg, Point{0, 0}); });
  pl.set(x, Point{0, 0});
  pl.set(g, Point{30, 40});
  EXPECT_DOUBLE_EQ(net_hpwl(net, pl, x), 70.0);
  EXPECT_DOUBLE_EQ(net_star_length(net, pl, x), 70.0);
}

TEST(Wirelength, EmptyNetContributesZero) {
  NetworkBuilder b;
  const GateId x = b.input("x");
  b.output("f", b.inv(x));
  const Network net = b.take();
  Placement pl(net.id_bound());
  net.for_each_gate([&](GateId g) { pl.set(g, Point{1, 1}); });
  const GateId po = net.primary_outputs()[0];
  EXPECT_DOUBLE_EQ(net_hpwl(net, pl, po), 0.0);  // Output marker drives nothing
}

TEST(Placer, NetWeightsBiasPlacement) {
  // Heavily weighting one net should pull its terminals closer together.
  const Network net = mapped(random_mapped_network(17, 12, 80, 8));
  GateId heavy = kNullGate;
  net.for_each_gate([&](GateId g) {
    if (heavy == kNullGate && is_logic(net.type(g)) && net.fanout_count(g) >= 2) {
      heavy = g;
    }
  });
  ASSERT_NE(heavy, kNullGate);

  PlacerOptions uniform = fast_options(5);
  PlacerOptions weighted = fast_options(5);
  weighted.net_weights.assign(net.id_bound(), 1.0);
  weighted.net_weights[heavy] = 50.0;
  const Placement pu = place(net, lib035(), uniform);
  const Placement pw = place(net, lib035(), weighted);
  EXPECT_LE(net_hpwl(net, pw, heavy), net_hpwl(net, pu, heavy) + 1e-9);
}

TEST(Placer, RejectsNonPositiveOrNonFiniteEffort) {
  // moves per temperature = effort * #cells went through an unchecked
  // double -> int cast; these efforts used to place silently.
  const Network net = mapped(random_mapped_network(18));
  for (const double effort : {-3.0, 0.0, std::numeric_limits<double>::quiet_NaN(),
                              std::numeric_limits<double>::infinity()}) {
    PlacerOptions o = fast_options();
    o.effort = effort;
    EXPECT_THROW(place(net, lib035(), o), InputError) << effort;
  }
}

TEST(Placer, RejectsEffortBeyondIntMovesPerTemperature) {
  const Network net = mapped(random_mapped_network(18));
  PlacerOptions o = fast_options();
  o.effort = 1e12;
  EXPECT_THROW(place(net, lib035(), o), InputError);
}

/// FNV-1a over the raw bits of every placed coordinate, in gate-id order.
std::uint64_t coordinate_hash(const Placement& pl) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](double v) {
    const auto bits = std::bit_cast<std::uint64_t>(v);
    for (int i = 0; i < 64; i += 8) {
      h ^= (bits >> i) & 0xffU;
      h *= 0x100000001b3ULL;
    }
  };
  for (GateId g = 0; g < pl.id_bound(); ++g) {
    if (!pl.is_placed(g)) continue;
    mix(pl.at(g).x);
    mix(pl.at(g).y);
  }
  return h;
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016llx", static_cast<unsigned long long>(v));
  return buf;
}

TEST(Placer, GoldenCoordinateHash) {
  // Pins the placer's output bits at default options. The expected hashes
  // were captured before the annealing kernel moved to flat net tables and
  // cached HPWL; any later placer change must reproduce them exactly.
  struct Case {
    const char* circuit;
    std::uint64_t seed;
    std::uint64_t hash;
  };
  const Case cases[] = {
      {"c432", 1, 0xd70f4563e14f2e1fULL},     {"c432", 7, 0xf3eb7539cc6b3fd8ULL},
      {"c1908", 1, 0x79871ebdee9f5f62ULL},    {"c1908", 7, 0xe24d1b812626cbfeULL},
      {"c6288", 1, 0x56694ba17877397aULL},    {"c6288", 7, 0xcc16c6e89b1a21c2ULL},
      {"gen:3000", 1, 0xc7719f182f2a9071ULL}, {"gen:3000", 7, 0xdeda826e3e2a9760ULL},
  };
  for (const Case& c : cases) {
    const std::string name = c.circuit;
    LargeCircuitOptions lopt;
    lopt.target_gates = 3000;
    const Network net =
        mapped(name == "gen:3000" ? make_large_circuit(lopt) : make_benchmark(name));
    PlacerOptions popt;
    popt.seed = c.seed;
    EXPECT_EQ(hex(coordinate_hash(place(net, lib035(), popt))), hex(c.hash))
        << name << " seed " << c.seed;
  }

  // Criticality-weighted run, weights built as place_timing_driven does.
  const Network net = mapped(make_benchmark("c432"));
  PlacerOptions popt;
  const Placement first = place(net, lib035(), popt);
  Sta sta(net, lib035(), first);
  sta.refresh_required();
  const double period = std::max(sta.critical_delay(), 1e-9);
  popt.net_weights.assign(net.id_bound(), 1.0);
  net.for_each_gate([&](GateId g) {
    if (net.type(g) == GateType::Output || net.fanout_count(g) == 0) return;
    const double crit = std::clamp(1.0 - sta.slack(g) / period, 0.0, 1.0);
    popt.net_weights[g] = 1.0 + 4.0 * crit * crit;
  });
  popt.seed = 2;
  EXPECT_EQ(hex(coordinate_hash(place(net, lib035(), popt))), hex(0xe73d5d376f411ef2ULL))
      << "c432 net_weights seed 2";
}

}  // namespace
}  // namespace rapids
