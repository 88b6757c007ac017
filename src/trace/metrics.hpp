// MetricsRegistry — the one machine-readable view of a run's counters.
//
// Named counters (monotone integers), gauges (point-in-time doubles) and
// histograms (util/stats fixed-bucket percentile accumulators) behind one
// snapshot/merge API, serialized as deterministic sorted JSON
// (`rapids flow --metrics-json out.json`).
//
// Naming convention: dotted lowercase paths, subsystem first —
// "engine.probes", "scheduler.rounds", "sync.bytes_delta",
// "partition.sgs_reextracted", "proof.conflicts", "time.optimize_s".
//
// One path from a counter's source to the metrics file:
//   1. Each stat struct (EngineStats, PartitionStats, ReplicaSyncStats,
//      sat::ProofSessionStats, SchedulerStats) derives from NamedStats and
//      names its members once, in its fields() list. Hot paths increment
//      plain members; the struct's +=, -=, harvest window and export are
//      all derived from that list.
//   2. The optimizer exports each struct once, plus the few derived values
//      (commit totals, post-setup deltas, phase times, histograms), into
//      OptimizerResult::metrics.
//   3. The flow merges that registry into the session's registry, which
//      the CLI and serve jobs label and write as JSON; the CLI's summary
//      lines read the same registry.
// Adding a counter means adding the member with its name to fields(), plus
// the increment.
//
// merge() folds registries across runs/sessions (counters add, gauges
// last-write-win, histograms merge).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <tuple>
#include <type_traits>

#include "util/stats.hpp"

namespace rapids {

struct OptimizerResult;

class MetricsRegistry {
 public:
  void add_counter(std::string_view name, std::uint64_t delta);
  void set_gauge(std::string_view name, double value);
  /// Fold `h` into the named histogram (created on first use with h's
  /// bucket config).
  void add_histogram(std::string_view name, const Histogram& h);

  std::uint64_t counter(std::string_view name) const;
  double gauge(std::string_view name) const;
  const Histogram* histogram(std::string_view name) const;
  bool has_counter(std::string_view name) const;
  bool has_gauge(std::string_view name) const;
  std::size_t size() const {
    return counters_.size() + gauges_.size() + histograms_.size();
  }

  /// Fold another registry in: counters add, gauges overwrite, histograms
  /// merge. The cross-worker / cross-session combine operation.
  void merge(const MetricsRegistry& other);

  /// Deterministic JSON snapshot: {"schema": "rapids-metrics-v1",
  /// "labels": {...}, "counters": {...}, "gauges": {...},
  /// "histograms": {name: {count, mean, min, max, p50, p90, p99}}}, every
  /// map sorted by key. An empty histogram writes only {"count": 0}.
  void write_json(std::ostream& os) const;

  /// Free-form string labels (circuit, mode, threads...) carried into the
  /// snapshot for provenance; not compared by bench_diff.
  void set_label(std::string_view name, std::string_view value);

 private:
  std::map<std::string, std::uint64_t, std::less<>> counters_;
  std::map<std::string, double, std::less<>> gauges_;
  std::map<std::string, Histogram, std::less<>> histograms_;
  std::map<std::string, std::string, std::less<>> labels_;
};

/// One member of a stat struct paired with its metric name. Integer
/// members export as counters; double members hold seconds and export as
/// `time.*` gauges.
template <class S, class T>
struct StatField {
  const char* name;
  T S::*member;
};

/// Base of the counter structs: `Derived::fields()` returns a std::tuple of
/// StatField, the struct's one field list, and every per-field operation is
/// derived from it.
template <class Derived>
struct NamedStats {
  template <class F>
  static void for_each_field(F&& f) {
    std::apply([&](const auto&... field) { (f(field), ...); }, Derived::fields());
  }

  Derived& operator+=(const Derived& o) {
    Derived& self = static_cast<Derived&>(*this);
    for_each_field([&](const auto& f) { self.*f.member += o.*f.member; });
    return self;
  }
  Derived& operator-=(const Derived& o) {
    Derived& self = static_cast<Derived&>(*this);
    for_each_field([&](const auto& f) { self.*f.member -= o.*f.member; });
    return self;
  }

  /// What `total` gained since `harvested` (the total at the previous
  /// harvest); `harvested` advances to `total`.
  static Derived take_window(const Derived& total, Derived& harvested) {
    Derived window = total;
    window -= harvested;
    harvested = total;
    return window;
  }

  /// Add every counter to `reg` and set every seconds gauge.
  void export_to(MetricsRegistry& reg) const {
    const Derived& self = static_cast<const Derived&>(*this);
    for_each_field([&](const auto& f) {
      const auto value = self.*f.member;
      if constexpr (std::is_floating_point_v<decltype(value)>) {
        reg.set_gauge(f.name, value);
      } else {
        reg.add_counter(f.name, static_cast<std::uint64_t>(value));
      }
    });
  }
};

/// Fold one optimization run's metrics (OptimizerResult::metrics) into
/// `reg`, plus the retired speculation counters (constant 0) that
/// perfbench/run.py still reads.
void collect_flow_metrics(MetricsRegistry& reg, const OptimizerResult& result);

}  // namespace rapids
