// Differential fuzzing harness: shrinker behavior and end-to-end smoke.
#include <gtest/gtest.h>

#include <filesystem>
#include <set>
#include <sstream>
#include <tuple>

#include "flow/flow.hpp"
#include "fuzz/fuzz.hpp"
#include "gen/random_circuit.hpp"
#include "netlist/validate.hpp"
#include "test_helpers.hpp"
#include "verify/simulator.hpp"

namespace rapids {
namespace {

TEST(RandomCircuit, DeterministicPerSeed) {
  const Network a = random_network(42);
  const Network b = random_network(42);
  EXPECT_EQ(a.num_gates(), b.num_gates());
  for (const GateId g : a.gates()) {
    ASSERT_FALSE(b.is_deleted(g));
    EXPECT_EQ(a.type(g), b.type(g));
  }
  EXPECT_EQ(output_signature(a, 5), output_signature(b, 5));
  const Network c = random_network(43);
  EXPECT_NE(output_signature(a, 5), output_signature(c, 5));
}

TEST(RandomCircuit, ProfilesStayInBounds) {
  for (std::uint64_t iter = 0; iter < 40; ++iter) {
    const RandomCircuitOptions opt = random_fuzz_profile(9, iter, 16, 140);
    EXPECT_GE(opt.num_inputs, 3);
    EXPECT_LE(opt.num_inputs, 16);
    EXPECT_GE(opt.num_gates, 8);
    EXPECT_LE(opt.num_gates, 140);
    const Network net = random_network(iter * 7 + 1, opt);
    EXPECT_TRUE(validate(net).empty());
    EXPECT_LE(net.primary_inputs().size(), 16u);
  }
}

TEST(Shrinker, MinimizesToThePredicateCore) {
  // Predicate: "fails" while the network still contains any XOR-family
  // gate. The shrinker must strip everything else and keep at least one.
  const Network src = rapids::testing::random_mapped_network(555, 10, 80, 6);
  const auto has_xor = [](const Network& n) {
    for (const GateId g : n.gates()) {
      if (base_type(n.type(g)) == GateType::Xor) return true;
    }
    return false;
  };
  ASSERT_TRUE(has_xor(src));
  const Network minimal = shrink_network(src, has_xor, 2000);
  EXPECT_TRUE(has_xor(minimal));
  EXPECT_TRUE(validate(minimal).empty());
  EXPECT_LT(minimal.num_gates(), src.num_gates() / 2);
  EXPECT_EQ(minimal.primary_outputs().size(), 1u);
}

TEST(Shrinker, ReturnsInputWhenNothingSmallerFails) {
  NetworkBuilder b;
  const GateId x = b.input("x"), y = b.input("y");
  b.output("f", b.and_({x, y}));
  const Network src = b.take();
  int calls = 0;
  const Network out = shrink_network(
      src,
      [&calls](const Network&) {
        ++calls;
        return false;
      },
      50);
  EXPECT_EQ(out.num_gates(), src.num_gates());
  EXPECT_GT(calls, 0);
}

TEST(ExactnessOracle, EveryRowSelectsItsOwnConfiguration) {
  // Each row's flags, through the CLI's parser, select a configuration
  // distinct from the reference and from every other row.
  const auto key = [](const OptimizerOptions& o) {
    return std::make_tuple(o.threads, o.paranoid, o.sat_session, o.incremental_extraction,
                           o.extract_diff, o.delta_replica_sync, o.prune_cache,
                           o.timing_damp, o.timing_damp_diff);
  };
  std::set<decltype(key(OptimizerOptions{}))> seen{key(OptimizerOptions{})};
  for (const ExactnessOracle& row : exactness_oracles()) {
    OptimizerOptions opt;
    row.apply(opt, 3);
    EXPECT_EQ(opt.threads, row.parallel ? 3 : 1) << row.name;
    EXPECT_TRUE(seen.insert(key(opt)).second) << row.name;
  }
  OptimizerOptions opt;
  EXPECT_THROW(apply_optimizer_flags("--paranoid --out x.blif", opt), InputError);
}

TEST(FuzzSlow, ThreadDeterminismRegressionCircuits) {
  // Two circuits on which the fuzzer caught --threads 1 vs N divergence:
  // probe undo restores fanout SETS but not their order, so supergate
  // extraction — and with it the arbiter's (gain, group) canonical commit
  // order — used to depend on how many probes the live engine had run.
  // Fixed by canonicalizing fanout order before every extraction plus the
  // recycled-id reserve. The fuzzer drew them as iterations 225 and 379 of
  // harness seed 424242 at --max-inputs 24 --max-gates 300; their profiles
  // are literals, so later profile changes keep these exact circuits.
  struct Repro {
    std::uint64_t iteration;
    OptMode mode;
    int inputs, gates, outputs, max_fanin;
    std::size_t logic_gates;  // what random_network keeps of the draw
  };
  constexpr std::uint64_t kHarnessSeed = 424242;
  const CellLibrary& lib = rapids::testing::lib035();
  for (const Repro& re : {Repro{225, OptMode::GsgPlusGS, 14, 263, 8, 2, 76},
                          Repro{379, OptMode::Gsg, 12, 233, 7, 4, 117}}) {
    RandomCircuitOptions prof{re.inputs, re.gates, re.outputs, re.max_fanin,
                              {4, 4, 4, 4, 1, 1, 1, 1}};  // AND/OR-heavy mix
    const Network src =
        random_network(Rng::substream(kHarnessSeed, re.iteration * 2).next_u64(), prof);
    ASSERT_EQ(src.num_logic_gates(), re.logic_gates) << "iter " << re.iteration;
    FlowOptions fopt;
    fopt.placer.seed = kHarnessSeed + re.iteration;
    fopt.placer.effort = 1.0;
    fopt.opt.max_iterations = 2;
    fopt.verify = false;
    const PreparedCircuit prepared = prepare_circuit("repro", src, lib, fopt);
    EXPECT_EQ(check_exactness(prepared, lib, re.mode, fopt, 3,
                              exactness_oracles({"threads"})),
              "")
        << "seed " << kHarnessSeed << " iter " << re.iteration;
  }
}

TEST(FuzzSlow, SmokeRunFindsNoBugs) {
  // The CI smoke contract: fixed seeds, bounded time, zero real bugs.
  FuzzOptions opt;
  opt.seed = 20260730;
  opt.iterations = 12;
  opt.threads = 3;
  opt.max_gates = 100;
  opt.repro_dir.clear();  // no disk writes from tests
  std::ostringstream log;
  const FuzzResult r = run_fuzz(opt, log);
  EXPECT_EQ(r.iterations, 12);
  EXPECT_TRUE(r.ok()) << log.str();
}

TEST(FuzzSlow, HealthyRunLeavesNoReproFiles) {
  // A clean run must not create the repro directory: reproducer files on
  // disk are the harness's failure signal and must never false-positive.
  const std::string dir = (std::filesystem::temp_directory_path() /
                           "rapids_fuzz_test_repros").string();
  std::filesystem::remove_all(dir);
  FuzzOptions opt;
  opt.seed = 99;
  opt.iterations = 3;
  opt.threads = 2;
  opt.repro_dir = dir;
  std::ostringstream log;
  const FuzzResult r = run_fuzz(opt, log);
  EXPECT_TRUE(r.ok()) << log.str();
  EXPECT_FALSE(std::filesystem::exists(dir));
}

}  // namespace
}  // namespace rapids
