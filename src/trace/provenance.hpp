// Per-move provenance: every candidate move that wins a probe group gets a
// stable id, and every decision made about it afterwards — arbitration
// acceptance, conflict/staleness/re-validation rejection, FirstFit
// fallback, commit, paranoid proof verdict — is appended to one ordered
// event stream. Answers "why did/didn't move X land?" without rerunning.
//
// Determinism: records are appended ONLY on the arbitration thread, which
// is serial and consumes winners in the canonical (gain, group) order — so
// the stream is bit-identical for every worker count, and it never feeds
// back into any decision. Probe workers never touch the log.
//
// Ids are stable across runs: (round, group, move_index) packed into 64
// bits. `round` is the scheduler's global round counter, `group` the
// group's index in that round's candidate list, `move_index` the move's
// position inside its group — all worker-count-independent coordinates.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

namespace rapids {

enum class ProvenanceStage : std::uint8_t {
  ProbeWin = 0,           // group winner entering arbitration
  Conflicted,             // overlapped an earlier commit this round
  RevalidationReject,     // live re-probe: gain evaporated
  FallbackChosen,         // FirstFit live rescan picked this move instead
  Committed,              // applied to the live engine
  ProofWindowProved,      // paranoid: window SAT proof discharged it
  ProofEscalatedProved,   // paranoid: full-miter escalation discharged it
  ProofInconclusive,      // paranoid: undecided — move was rolled back
};

const char* to_string(ProvenanceStage stage);

/// Pack worker-count-independent move coordinates into a stable 64-bit id:
/// round (high 32) | group (middle 16) | move_index (low 16). Fields are
/// clamped, not asserted — provenance must never abort a run.
std::uint64_t make_move_id(std::uint64_t round, int group, int move_index);
std::uint64_t move_id_round(std::uint64_t id);
int move_id_group(std::uint64_t id);
int move_id_index(std::uint64_t id);

struct ProvenanceRecord {
  std::uint64_t move_id = 0;
  ProvenanceStage stage = ProvenanceStage::ProbeWin;
  double gain = 0.0;  // stage-relevant gain (replica gain / live gain)
};

/// Append-only per-run move-decision stream. Every log belongs to a
/// SessionContext, so concurrent sessions keep separate streams; there is
/// no process-wide log. The flow's caller enables it around one run and
/// dumps after.
class ProvenanceLog {
 public:
  /// Fresh disabled log (a session-private stream).
  ProvenanceLog() = default;

  void enable();
  void disable();
  bool enabled() const { return enabled_; }

  /// Session id stamped into write_json ("default" when unset) so
  /// multi-session provenance dumps are attributable.
  void set_session_id(std::string id) { session_id_ = std::move(id); }
  const std::string& session_id() const { return session_id_; }

  void record(std::uint64_t move_id, ProvenanceStage stage, double gain = 0.0) {
    if (!enabled_) return;
    records_.push_back({move_id, stage, gain});
  }

  const std::vector<ProvenanceRecord>& records() const { return records_; }

  /// JSON event stream: {"schema": "rapids-provenance-v1", "session":
  /// "<id>", "events": [{"id", "round", "group", "move", "stage",
  /// "gain"}...]} in append (= canonical decision) order.
  void write_json(std::ostream& os) const;

  /// Audit: every Committed or FallbackChosen-then-Committed id must trace
  /// back to a ProbeWin (FallbackChosen moves share the ProbeWin's (round,
  /// group) but may differ in move_index), and every terminal rejection
  /// must also follow a ProbeWin. Returns the number of committed chains
  /// resolved; fills `diag` and returns -1 on the first broken chain.
  int resolve_committed_chains(std::string* diag) const;

 private:
  bool enabled_ = false;
  std::string session_id_;
  std::vector<ProvenanceRecord> records_;
};

}  // namespace rapids
