// Bench/metrics regression diffing: compare two JSON snapshots
// (BENCH_*.json from the bench harness, or --metrics-json output) by
// projecting every numeric leaf onto its dotted path and reporting
// per-counter deltas, with configurable thresholds that turn a diff into a
// CI-failing regression.
//
// Threshold rules are glob patterns over the dotted paths:
//   fail-above  "time.*=10"          — fail if the new value exceeds the
//                                      old by more than 10%
//   fail-below  "rate.probes_per_sec=40" — fail if it drops more than 40%
// A rule only fires when both sides have the key and the baseline is
// nonzero (new keys / removed keys are reported but never fail — bench
// schemas grow).
//
// Used by `rapids bench-diff`.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace rapids {

struct DiffRule {
  std::string pattern;  // '*'-glob over dotted keys
  double pct = 0.0;     // allowed relative change, percent
  bool above = true;    // true: fail on increase; false: fail on decrease
};

/// Parse "pattern=pct" (e.g. "time.*=10"); throws InputError on bad syntax.
DiffRule parse_diff_rule(const std::string& spec, bool above);

/// Minimal '*' glob (matches any run, including empty); no other
/// metacharacters. Case-sensitive.
bool glob_match(const std::string& pattern, const std::string& key);

struct DiffEntry {
  std::string key;
  double before = 0.0;
  double after = 0.0;
  bool in_before = false;
  bool in_after = false;
  double delta_pct = 0.0;       // 0 when baseline is 0 or key one-sided
  int violated_rule = -1;       // index into the rule list, -1 = ok
};

struct DiffReport {
  std::vector<DiffEntry> entries;  // union of keys, sorted
  int violations = 0;
  std::size_t keys_before = 0;
  std::size_t keys_after = 0;
};

/// Diff two JSON documents (full text). Throws InputError on parse errors.
DiffReport diff_metrics_json(const std::string& before_text,
                             const std::string& after_text,
                             const std::vector<DiffRule>& rules);

/// Human-readable table. `only_changed` suppresses keys whose values are
/// equal on both sides. Violations are marked and summarized.
void write_diff_report(std::ostream& os, const DiffReport& report,
                       const std::vector<DiffRule>& rules, bool only_changed);

}  // namespace rapids
