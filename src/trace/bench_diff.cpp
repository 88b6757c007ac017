#include "trace/bench_diff.hpp"

#include <cmath>
#include <iomanip>
#include <ostream>

#include "util/assert.hpp"
#include "util/json_lite.hpp"

namespace rapids {

DiffRule parse_diff_rule(const std::string& spec, bool above) {
  const std::size_t eq = spec.rfind('=');
  if (eq == std::string::npos || eq == 0 || eq + 1 == spec.size()) {
    throw InputError("bad threshold rule '" + spec + "' (expected pattern=pct)");
  }
  DiffRule rule;
  rule.pattern = spec.substr(0, eq);
  rule.above = above;
  try {
    std::size_t used = 0;
    rule.pct = std::stod(spec.substr(eq + 1), &used);
    if (used != spec.size() - eq - 1) throw std::invalid_argument("trailing");
  } catch (const std::exception&) {
    throw InputError("bad threshold percentage in rule '" + spec + "'");
  }
  if (rule.pct < 0.0) {
    throw InputError("negative threshold in rule '" + spec + "'");
  }
  return rule;
}

bool glob_match(const std::string& pattern, const std::string& key) {
  // Iterative '*' glob with backtracking to the last star.
  std::size_t p = 0, k = 0;
  std::size_t star = std::string::npos, mark = 0;
  while (k < key.size()) {
    if (p < pattern.size() && (pattern[p] == key[k])) {
      ++p;
      ++k;
    } else if (p < pattern.size() && pattern[p] == '*') {
      star = p++;
      mark = k;
    } else if (star != std::string::npos) {
      p = star + 1;
      k = ++mark;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '*') ++p;
  return p == pattern.size();
}

DiffReport diff_metrics_json(const std::string& before_text,
                             const std::string& after_text,
                             const std::vector<DiffRule>& rules) {
  const auto before = flatten_numeric(parse_json(before_text));
  const auto after = flatten_numeric(parse_json(after_text));

  DiffReport report;
  report.keys_before = before.size();
  report.keys_after = after.size();

  std::vector<bool> matched(rules.size(), false);
  auto bi = before.begin();
  auto ai = after.begin();
  while (bi != before.end() || ai != after.end()) {
    DiffEntry e;
    if (ai == after.end() || (bi != before.end() && bi->first < ai->first)) {
      e.key = bi->first;
      e.before = bi->second;
      e.in_before = true;
      ++bi;
    } else if (bi == before.end() || ai->first < bi->first) {
      e.key = ai->first;
      e.after = ai->second;
      e.in_after = true;
      ++ai;
    } else {
      e.key = bi->first;
      e.before = bi->second;
      e.after = ai->second;
      e.in_before = e.in_after = true;
      ++bi;
      ++ai;
    }
    if (e.in_before && e.in_after && e.before != 0.0) {
      e.delta_pct = 100.0 * (e.after - e.before) / std::fabs(e.before);
    }
    for (std::size_t i = 0; i < rules.size(); ++i) {
      if (!glob_match(rules[i].pattern, e.key)) continue;
      matched[i] = true;
      if (!e.in_before || e.violated_rule >= 0) continue;
      // A gated key that disappeared fails; so does any move off a zero
      // baseline in the rule's direction (no percentage bounds it).
      const DiffRule& rule = rules[i];
      bool bad = true;
      if (e.in_after && e.before == 0.0) {
        bad = rule.above ? e.after > 0.0 : e.after < 0.0;
      } else if (e.in_after) {
        bad = rule.above ? e.delta_pct > rule.pct : e.delta_pct < -rule.pct;
      }
      if (bad) {
        e.violated_rule = static_cast<int>(i);
        ++report.violations;
      }
    }
    report.entries.push_back(std::move(e));
  }
  for (std::size_t i = 0; i < rules.size(); ++i) {
    if (!matched[i]) {
      throw InputError(std::string("rule ") + (rules[i].above ? "--fail-above " : "--fail-below ") +
                       rules[i].pattern + " matches no key in either file");
    }
  }
  return report;
}

void write_diff_report(std::ostream& os, const DiffReport& report,
                       const std::vector<DiffRule>& rules, bool only_changed) {
  os << "bench-diff: " << report.keys_before << " baseline keys, "
     << report.keys_after << " current keys\n";
  for (const DiffEntry& e : report.entries) {
    if (!e.in_before) {
      os << "  + " << e.key << " = " << e.after << " (new)\n";
      continue;
    }
    if (!e.in_after && e.violated_rule < 0) {
      os << "  - " << e.key << " (removed, was " << e.before << ")\n";
      continue;
    }
    if (only_changed && e.in_after && e.before == e.after) continue;
    os << (e.violated_rule >= 0 ? "  ! " : "    ") << e.key << ": " << e.before << " -> ";
    if (e.in_after) {
      os << e.after;
    } else {
      os << "(removed)";
    }
    if (e.in_after && e.before != 0.0) {
      os << " (" << (e.delta_pct >= 0 ? "+" : "") << std::fixed
         << std::setprecision(1) << e.delta_pct << "%)" << std::defaultfloat
         << std::setprecision(6);
    }
    if (e.violated_rule >= 0) {
      const DiffRule& rule = rules[static_cast<std::size_t>(e.violated_rule)];
      os << "  REGRESSION vs " << (rule.above ? "fail-above " : "fail-below ")
         << rule.pattern << "=" << rule.pct;
    }
    os << '\n';
  }
  if (report.violations > 0) {
    os << "bench-diff: " << report.violations << " regression"
       << (report.violations == 1 ? "" : "s") << " past threshold\n";
  } else {
    os << "bench-diff: ok (no thresholds exceeded)\n";
  }
}

}  // namespace rapids
