#include "bench/bench.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "flow/flow.hpp"
#include "util/assert.hpp"
#include "util/json_lite.hpp"
#include "util/thread_pool.hpp"

namespace rapids {
namespace {

/// Every comma-separated item of `text`, empty ones included (so "a,,b"
/// and "a," fail where each item is parsed).
std::vector<std::string> split_list(const std::string& text) {
  std::vector<std::string> items;
  for (std::size_t start = 0;;) {
    const std::size_t comma = text.find(',', start);
    items.push_back(text.substr(start, comma - start));
    if (comma == std::string::npos) return items;
    start = comma + 1;
  }
}

std::vector<int> parse_threads(const std::string& text) {
  std::vector<int> counts;
  for (const std::string& t : split_list(text)) counts.push_back(parse_thread_count("--threads", t));
  return counts;
}

/// The comma-separated `text(item)` of every item.
template <class T, class F>
std::string join(const std::vector<T>& items, F&& text) {
  std::string out;
  for (const T& item : items) {
    if (!out.empty()) out += ',';
    out += text(item);
  }
  return out;
}

}  // namespace

BenchArgs parse_bench_args(const std::vector<std::string>& args) {
  if (args.empty()) throw InputError("bench: expected a suite name");
  const std::vector<BenchSuite> suites = bench_suites();
  const auto it = std::find_if(suites.begin(), suites.end(),
                               [&](const BenchSuite& s) { return s.name == args[0]; });
  if (it == suites.end()) {
    std::string names;
    for (const BenchSuite& s : suites) names += " " + s.name;
    throw InputError("unknown bench suite '" + args[0] + "' (suites:" + names + ")");
  }
  BenchArgs out;
  out.suite = *it;
  BenchRun& run = out.run;
  std::string circuits = it->circuits;
  run.min_time = it->min_time;
  run.iters = it->iters;
  run.threads = it->threads;
  for (std::size_t i = 1; i < args.size(); ++i) {
    const std::string& a = args[i];
    if (i + 1 >= args.size()) throw InputError("missing value after " + a);
    const std::string& v = args[++i];
    if (a == "--out") {
      out.out = v;
    } else if (a == "--baseline") {
      out.baseline = v;
    } else if (a == "--circuits") {
      circuits = v;
    } else if (a == "--min-time") {
      run.min_time = parse_flag_value<double>(a, v);
      if (!(run.min_time > 0.0) || !std::isfinite(run.min_time)) {
        throw InputError("--min-time must be a positive number of seconds, got " + v);
      }
    } else if (a == "--threads") {
      if (it->threads.empty()) throw InputError("suite " + it->name + " takes no --threads");
      run.threads = parse_threads(v);
      if (it->threads.size() == 1 && run.threads.size() != 1) {
        throw InputError("suite " + it->name + " takes one thread count, got " + v);
      }
    } else if (a == "--iters") {
      if (it->iters == 0) throw InputError("suite " + it->name + " takes no --iters");
      run.iters = parse_flag_value<int>(a, v);
      if (run.iters < 1) throw InputError("--iters must be at least 1, got " + v);
    } else {
      throw InputError("unknown bench flag: " + a);
    }
  }
  for (const std::string& name : split_list(circuits)) {
    if (name.empty()) throw InputError("empty circuit in --circuits " + circuits);
    run.circuits.push_back({name, load_circuit(name)});
  }
  return out;
}

BenchFailures run_bench(const BenchArgs& args, const CellLibrary& lib, MetricsRegistry& reg) {
  const BenchRun& run = args.run;
  std::ostringstream min_time;
  min_time << run.min_time;
  reg.set_label("suite", args.suite.name);
  reg.set_label("circuits", join(run.circuits, [](const BenchCircuit& c) { return c.name; }));
  reg.set_label("min_time", min_time.str());
  if (!run.threads.empty()) {
    reg.set_label("threads", join(run.threads, [](int t) { return std::to_string(t); }));
  }
  if (run.iters > 0) reg.set_label("iters", std::to_string(run.iters));
  reg.set_label("hardware_threads", std::to_string(ThreadPool::hardware_threads()));
  reg.set_label("role", "candidate");

  BenchFailures failures;
  args.suite.measure(run, lib, reg, failures);
  return failures;
}

void merge_baseline(MetricsRegistry& reg, const std::string& baseline_json) {
  const JsonValue doc = parse_json(baseline_json);
  const JsonValue* labels = doc.find("labels");
  const JsonValue* gauges = doc.find("gauges");
  if (labels == nullptr || gauges == nullptr || !gauges->is_object()) {
    throw InputError("baseline is not a rapids bench snapshot");
  }
  if (labels->is_object()) {
    for (const auto& [name, value] : labels->members()) {
      if (name.starts_with("baseline.") || !value.is_string()) continue;
      reg.set_label("baseline." + name, value.as_string());
    }
  }
  reg.set_label("baseline.role", "baseline");
  for (const auto& [key, value] : gauges->members()) {
    const std::size_t dot = key.rfind('.');
    const std::string prefix = dot == std::string::npos ? "" : key.substr(0, dot + 1);
    const std::string metric = key.substr(prefix.size());
    if (!value.is_number() || metric.starts_with("baseline_") || metric.starts_with("speedup_")) {
      continue;  // a baseline's own pairing is not copied again
    }
    const double base = value.as_number();
    reg.set_gauge(prefix + "baseline_" + metric, base);
    if (!reg.has_gauge(key) || base <= 0.0 || reg.gauge(key) <= 0.0) continue;
    if (metric.ends_with("_per_sec")) {
      reg.set_gauge(prefix + "speedup_" + metric, reg.gauge(key) / base);
    } else if (metric.starts_with("ns_per_")) {
      reg.set_gauge(prefix + "speedup_" + metric, base / reg.gauge(key));
    }
  }
}

}  // namespace rapids
