#include "trace/provenance.hpp"

#include <algorithm>
#include <ostream>
#include <set>

namespace rapids {

const char* to_string(ProvenanceStage stage) {
  switch (stage) {
    case ProvenanceStage::ProbeWin:
      return "probe_win";
    case ProvenanceStage::StaleCrossSg:
      return "stale_cross_sg";
    case ProvenanceStage::Conflicted:
      return "conflicted";
    case ProvenanceStage::RevalidationReject:
      return "revalidation_reject";
    case ProvenanceStage::FallbackChosen:
      return "fallback_chosen";
    case ProvenanceStage::Committed:
      return "committed";
    case ProvenanceStage::ProofWindowProved:
      return "proof_window_proved";
    case ProvenanceStage::ProofEscalatedProved:
      return "proof_escalated_proved";
    case ProvenanceStage::ProofInconclusive:
      return "proof_inconclusive";
  }
  return "?";
}

std::uint64_t make_move_id(std::uint64_t round, int group, int move_index) {
  const std::uint64_t r = std::min<std::uint64_t>(round, 0xffffffffULL);
  const std::uint64_t g =
      static_cast<std::uint64_t>(std::clamp(group, 0, 0xffff));
  const std::uint64_t m =
      static_cast<std::uint64_t>(std::clamp(move_index, 0, 0xffff));
  return (r << 32) | (g << 16) | m;
}

std::uint64_t move_id_round(std::uint64_t id) { return id >> 32; }
int move_id_group(std::uint64_t id) { return static_cast<int>((id >> 16) & 0xffff); }
int move_id_index(std::uint64_t id) { return static_cast<int>(id & 0xffff); }

void ProvenanceLog::enable() {
  records_.clear();
  enabled_ = true;
}

void ProvenanceLog::disable() { enabled_ = false; }

void ProvenanceLog::write_json(std::ostream& os) const {
  os << "{\n  \"schema\": \"rapids-provenance-v1\",\n  \"session\": \""
     << (session_id_.empty() ? "default" : session_id_)
     << "\",\n  \"events\": [";
  bool first = true;
  for (const ProvenanceRecord& rec : records_) {
    os << (first ? "\n" : ",\n") << "    {\"id\": " << rec.move_id
       << ", \"round\": " << move_id_round(rec.move_id)
       << ", \"group\": " << move_id_group(rec.move_id)
       << ", \"move\": " << move_id_index(rec.move_id) << ", \"stage\": \""
       << to_string(rec.stage) << "\", \"gain\": " << rec.gain << '}';
    first = false;
  }
  os << (first ? "" : "\n  ") << "]\n}\n";
}

int ProvenanceLog::resolve_committed_chains(std::string* diag) const {
  auto fail = [diag](const std::string& why) {
    if (diag != nullptr) *diag = why;
    return -1;
  };
  // Ids (exact) that have a ProbeWin, and (round, group) keys that do —
  // a FirstFit fallback re-selects a different move_index from the same
  // group, so its chain roots at the group's ProbeWin.
  std::set<std::uint64_t> probe_wins;
  std::set<std::uint64_t> probe_win_groups;
  std::set<std::uint64_t> fallback_ids;
  int committed = 0;
  for (const ProvenanceRecord& rec : records_) {
    const std::uint64_t group_key = rec.move_id >> 16;  // (round, group)
    switch (rec.stage) {
      case ProvenanceStage::ProbeWin:
        probe_wins.insert(rec.move_id);
        probe_win_groups.insert(group_key);
        break;
      case ProvenanceStage::FallbackChosen:
        if (probe_win_groups.count(group_key) == 0) {
          return fail("fallback id " + std::to_string(rec.move_id) +
                      " has no probe_win for its (round, group)");
        }
        fallback_ids.insert(rec.move_id);
        break;
      case ProvenanceStage::StaleCrossSg:
      case ProvenanceStage::Conflicted:
      case ProvenanceStage::RevalidationReject:
        if (probe_wins.count(rec.move_id) == 0) {
          return fail("rejection of id " + std::to_string(rec.move_id) +
                      " (" + to_string(rec.stage) + ") has no prior probe_win");
        }
        break;
      case ProvenanceStage::Committed:
        if (probe_wins.count(rec.move_id) == 0 &&
            fallback_ids.count(rec.move_id) == 0) {
          return fail("committed id " + std::to_string(rec.move_id) +
                      " has neither probe_win nor fallback_chosen");
        }
        ++committed;
        break;
      case ProvenanceStage::ProofWindowProved:
      case ProvenanceStage::ProofEscalatedProved:
      case ProvenanceStage::ProofInconclusive:
        // Verdicts attach to the move most recently arbitrated; the id must
        // at least be known.
        if (probe_wins.count(rec.move_id) == 0 &&
            fallback_ids.count(rec.move_id) == 0) {
          return fail("proof verdict for unknown id " +
                      std::to_string(rec.move_id));
        }
        break;
    }
  }
  return committed;
}

}  // namespace rapids
