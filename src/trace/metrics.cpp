#include "trace/metrics.hpp"

#include <charconv>
#include <cmath>
#include <ostream>

#include "opt/optimizer.hpp"

namespace rapids {

void MetricsRegistry::add_counter(std::string_view name, std::uint64_t delta) {
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    counters_.emplace(std::string(name), delta);
  } else {
    it->second += delta;
  }
}

void MetricsRegistry::set_gauge(std::string_view name, double value) {
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    gauges_.emplace(std::string(name), value);
  } else {
    it->second = value;
  }
}

void MetricsRegistry::add_histogram(std::string_view name, const Histogram& h) {
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    histograms_.emplace(std::string(name), h);
  } else {
    it->second.merge(h);
  }
}

void MetricsRegistry::set_label(std::string_view name, std::string_view value) {
  labels_.insert_or_assign(std::string(name), std::string(value));
}

std::uint64_t MetricsRegistry::counter(std::string_view name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

double MetricsRegistry::gauge(std::string_view name) const {
  auto it = gauges_.find(name);
  return it == gauges_.end() ? 0.0 : it->second;
}

const Histogram* MetricsRegistry::histogram(std::string_view name) const {
  auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : &it->second;
}

bool MetricsRegistry::has_counter(std::string_view name) const {
  return counters_.find(name) != counters_.end();
}

bool MetricsRegistry::has_gauge(std::string_view name) const {
  return gauges_.find(name) != gauges_.end();
}

void MetricsRegistry::merge(const MetricsRegistry& other) {
  for (const auto& [name, value] : other.counters_) add_counter(name, value);
  for (const auto& [name, value] : other.gauges_) set_gauge(name, value);
  for (const auto& [name, h] : other.histograms_) add_histogram(name, h);
  for (const auto& [name, value] : other.labels_) set_label(name, value);
}

namespace {
void write_escaped(std::ostream& os, const std::string& s) {
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      os << '\\' << c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      os << ' ';
    } else {
      os << c;
    }
  }
}

void write_number(std::ostream& os, double v) {
  // JSON has no NaN/Inf; clamp to null-ish zero rather than emit garbage.
  if (!std::isfinite(v)) {
    os << 0;
    return;
  }
  // The shortest text that parses back to the same bits, so a gauge can be
  // gated exactly across a write and a re-read.
  char buf[32];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
  os.write(buf, end - buf);
}
}  // namespace

void MetricsRegistry::write_json(std::ostream& os) const {
  os << "{\n  \"schema\": \"rapids-metrics-v1\",\n  \"labels\": {";
  bool first = true;
  for (const auto& [name, value] : labels_) {
    os << (first ? "\n" : ",\n") << "    \"";
    write_escaped(os, name);
    os << "\": \"";
    write_escaped(os, value);
    os << '"';
    first = false;
  }
  os << (first ? "" : "\n  ") << "},\n  \"counters\": {";
  first = true;
  for (const auto& [name, value] : counters_) {
    os << (first ? "\n" : ",\n") << "    \"";
    write_escaped(os, name);
    os << "\": " << value;
    first = false;
  }
  os << (first ? "" : "\n  ") << "},\n  \"gauges\": {";
  first = true;
  for (const auto& [name, value] : gauges_) {
    os << (first ? "\n" : ",\n") << "    \"";
    write_escaped(os, name);
    os << "\": ";
    write_number(os, value);
    first = false;
  }
  os << (first ? "" : "\n  ") << "},\n  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms_) {
    os << (first ? "\n" : ",\n") << "    \"";
    write_escaped(os, name);
    os << "\": {\"count\": " << h.count();
    // No sample, no statistic: an empty histogram's mean and percentiles
    // would read 0 as if measured.
    if (h.count() > 0) {
      os << ", \"mean\": ";
      write_number(os, h.stats().mean());
      os << ", \"min\": ";
      write_number(os, h.stats().min());
      os << ", \"max\": ";
      write_number(os, h.stats().max());
      os << ", \"p50\": ";
      write_number(os, h.percentile(0.50));
      os << ", \"p90\": ";
      write_number(os, h.percentile(0.90));
      os << ", \"p99\": ";
      write_number(os, h.percentile(0.99));
    }
    os << '}';
    first = false;
  }
  os << (first ? "" : "\n  ") << "}\n}\n";
}

void collect_flow_metrics(MetricsRegistry& reg, const OptimizerResult& result) {
  reg.merge(result.metrics);
  // Pipelined speculation is retired; these stay registered as constant 0
  // because perfbench/run.py's traced reader indexes them.
  reg.add_counter("scheduler.speculative_probes", 0);
  reg.add_counter("scheduler.speculation_hits", 0);
  reg.add_counter("scheduler.speculation_wasted", 0);
}

}  // namespace rapids
