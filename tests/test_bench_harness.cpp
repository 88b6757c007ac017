// `rapids bench`: the flag set rejects malformed values before anything
// runs, and every suite, on its smallest input, writes each key that a CI
// bench-diff rule gates, with counters that repeat run to run.
#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <regex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench.hpp"
#include "test_helpers.hpp"
#include "trace/bench_diff.hpp"
#include "util/json_lite.hpp"

namespace rapids {
namespace {

using rapids::testing::lib035;

TEST(Bench, ArgsRejectMalformedValues) {
  // Each case throws from parse_bench_args, which reads flags and circuits
  // only: no suite runs and no worker pool starts.
  const std::string over_cap =
      std::to_string(std::max(8u, 4 * std::thread::hardware_concurrency()) + 1);
  const std::vector<std::vector<std::string>> bad = {
      {"engine", "--threads", "abc"},       // engine takes no worker count
      {"parallel", "--threads", "abc"},
      {"parallel", "--threads", "1,x"},
      {"parallel", "--threads", "1,,2"},
      {"parallel", "--threads", "1,2,"},
      {"parallel", "--threads", ""},
      {"parallel", "--threads", "0"},
      {"parallel", "--threads", over_cap},
      {"scale", "--threads", "2,4"},        // scale runs at one count
      {"sta", "--circuits", "gen:300x"},
      {"sta", "--circuits", "no-such-circuit"},
      {"sta", "--circuits", "c432,"},
      {"sta", "--min-time", "1x"},
      {"sta", "--min-time", "0"},
      {"sta", "--min-time", "-1"},
      {"extract", "--iters", "0"},
      {"extract", "--iters", "2.5"},
      {"sat", "--iters", "3"},              // sat takes no iteration count
      {"sta", "--out"},                     // missing value
      {"sta", "--sizes", "1000"},
      {"nope"},
      {},
  };
  for (const std::vector<std::string>& args : bad) {
    std::string line;
    for (const std::string& a : args) line += a + " ";
    EXPECT_THROW(parse_bench_args(args), InputError) << line;
  }
  const BenchArgs ok = parse_bench_args({"parallel", "--threads", "1,2", "--circuits",
                                         "c432,gen:300:5", "--min-time", "0.5"});
  EXPECT_EQ(ok.run.threads, (std::vector<int>{1, 2}));
  ASSERT_EQ(ok.run.circuits.size(), 2u);
  EXPECT_EQ(ok.run.circuits[1].name, "gen:300:5");
  EXPECT_EQ(ok.run.min_time, 0.5);
  EXPECT_EQ(parse_bench_args({"scale"}).run.threads, (std::vector<int>{4}));
}

/// The rules of every `rapids bench-diff BENCH_<suite>.json ...` step of the
/// CI workflow, by suite.
std::map<std::string, std::vector<DiffRule>> ci_bench_rules() {
  std::ifstream in(std::string(RAPIDS_SOURCE_DIR) + "/.github/workflows/ci.yml");
  std::stringstream text;
  text << in.rdbuf();
  const std::string yml = text.str();
  std::map<std::string, std::vector<DiffRule>> rules;
  const std::regex step(R"(rapids bench-diff BENCH_(\w+)\.json[^\n]*((\n +--fail-[^\n]*)*))");
  const std::regex rule(R"(--fail-(above|below) '([^']+)')");
  for (auto it = std::sregex_iterator(yml.begin(), yml.end(), step); it != std::sregex_iterator();
       ++it) {
    const std::string body = (*it)[0];
    for (auto r = std::sregex_iterator(body.begin(), body.end(), rule);
         r != std::sregex_iterator(); ++r) {
      rules[(*it)[1]].push_back(parse_diff_rule((*r)[2], (*r)[1] == "above"));
    }
  }
  return rules;
}

/// The suite's snapshot on `args`, as bench-diff flattens it.
std::map<std::string, double> run_flat(const std::vector<std::string>& args) {
  MetricsRegistry reg;
  const BenchFailures failures = run_bench(parse_bench_args(args), lib035(), reg);
  for (const std::string& f : failures) ADD_FAILURE() << args[0] << ": " << f;
  std::ostringstream os;
  reg.write_json(os);
  return flatten_numeric(parse_json(os.str()));
}

TEST(Bench, EverySuiteWritesItsGatedKeysAndRepeatsItsCounters) {
  const std::map<std::string, std::vector<std::string>> smallest = {
      {"engine", {"--circuits", "c1908"}},
      {"sta", {"--circuits", "c432"}},
      {"parallel", {"--circuits", "c1908", "--threads", "1,2"}},
      {"sat", {"--circuits", "c432"}},
      {"extract", {"--circuits", "c432", "--iters", "2"}},
      {"scale", {"--circuits", "gen:1000:7,gen:2000:7", "--threads", "2"}},
      {"linear", {"--circuits", "gen:1000"}},
  };
  const std::map<std::string, std::vector<DiffRule>> rules = ci_bench_rules();
  for (const std::string suite : {"engine", "sta", "parallel", "sat", "extract", "scale"}) {
    EXPECT_TRUE(rules.count(suite)) << "CI gates no key of suite " << suite;
  }
  for (const BenchSuite& suite : bench_suites()) {
    ASSERT_TRUE(smallest.count(suite.name)) << suite.name;
    std::vector<std::string> args = {suite.name, "--min-time", "0.01"};
    const std::vector<std::string>& extra = smallest.at(suite.name);
    args.insert(args.end(), extra.begin(), extra.end());
    const std::map<std::string, double> first = run_flat(args);
    const std::map<std::string, double> second = run_flat(args);

    if (rules.count(suite.name)) {
      for (const DiffRule& rule : rules.at(suite.name)) {
        bool matched = false;
        for (const auto& [key, value] : first) matched = matched || glob_match(rule.pattern, key);
        EXPECT_TRUE(matched) << suite.name << ": CI rule " << rule.pattern << " gates no key";
      }
    }
    std::size_t counters = 0;
    for (const auto& [key, value] : first) {
      if (key.rfind("counters.", 0) != 0) continue;
      ++counters;
      ASSERT_TRUE(second.count(key)) << suite.name << ": " << key;
      EXPECT_EQ(second.at(key), value) << suite.name << ": " << key;
    }
    EXPECT_GT(counters, 0u) << suite.name;
  }
}

}  // namespace
}  // namespace rapids
