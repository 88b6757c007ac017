// Paranoid-prover gauge: persistent incremental proof session
// (sat/proof_session.hpp) versus one throwaway solver per move
// (sat/window.hpp), emitted as machine-readable JSON (BENCH_sat.json).
//
// Two measurements per circuit:
//
//   micro — proofs/sec on ONE fixed window, re-proved in a loop. The
//     per-move prover re-builds solver + Tseitin encoding every iteration;
//     the warm session reuses its cached cut frontier and only re-derives
//     the window (hash-cons hits), so the gap isolates the per-move setup
//     cost the session amortizes.
//
//   flow — the full `--paranoid` optimize run in both modes from one
//     prepared placement: committed-move proofs, total encoded gates,
//     conflicts, the session's cone-cache hits and learned-clause
//     retention/eviction breakdown (reduce_db rounds), and whether the two
//     modes proved the SAME move set move-for-move (they must — the test
//     suite asserts it; the bench just records it).
//
// Usage: sat_session [--out BENCH_sat.json] [--circuits a,b,c]
//                    [--min-time SECONDS]
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "flow/flow.hpp"
#include "gen/suite.hpp"
#include "library/cell_library.hpp"
#include "mapping/mapper.hpp"
#include "opt/optimizer.hpp"
#include "place/placer.hpp"
#include "rewire/swap.hpp"
#include "sat/proof_session.hpp"
#include "sat/window.hpp"
#include "sym/gisg.hpp"
#include "sym/symmetry.hpp"
#include "util/timer.hpp"

namespace {

using namespace rapids;

struct MicroPoint {
  double session_proofs_per_sec = 0.0;
  double per_move_proofs_per_sec = 0.0;
  std::uint64_t session_gates_encoded = 0;  // across the whole loop
  std::uint64_t per_move_window_gates = 0;
  std::size_t proofs = 0;
};

/// Re-prove one fixed pin-swap window until `min_time` elapses, through
/// both provers.
MicroPoint micro_bench(const Network& src, const CellLibrary& lib, double min_time) {
  MicroPoint pt;
  Network net = src.clone();
  Placement pl = place(net, lib, PlacerOptions{});
  const GisgPartition part = extract_gisg(net);

  // First swappable candidate of a non-trivial supergate.
  SwapCandidate cand;
  GateId root = kNullGate;
  for (std::size_t s = 0; s < part.sgs.size() && root == kNullGate; ++s) {
    if (part.sgs[s].is_trivial()) continue;
    const auto cands = enumerate_swaps(part, static_cast<int>(s), net);
    if (!cands.empty()) {
      cand = cands.front();
      root = part.sgs[s].root;
    }
  }
  if (root == kNullGate) return pt;
  const GateId changed[] = {cand.pin_a.gate, cand.pin_b.gate};

  net.set_id_recycling(true);
  SwapEdit edit;

  {
    sat::ProofSession session;
    Timer t;
    std::size_t proofs = 0;
    do {
      session.begin(net, {&root, 1}, changed);
      apply_swap_into(net, pl, lib, cand, edit);
      const bool ok = session.check(net, edit.added_inverters);
      undo_swap(net, pl, edit);
      session.abandon();
      if (!ok) {
        std::cerr << "micro: session failed a provable window\n";
        return pt;
      }
      ++proofs;
    } while (t.seconds() < min_time);
    pt.session_proofs_per_sec = static_cast<double>(proofs) / t.seconds();
    pt.session_gates_encoded = session.stats().gates_encoded;
    pt.proofs = proofs;
  }
  {
    sat::WindowChecker checker;
    Timer t;
    std::size_t proofs = 0;
    std::uint64_t gates = 0;
    do {
      checker.begin(net, {&root, 1}, changed);
      apply_swap_into(net, pl, lib, cand, edit);
      const bool ok = checker.check(net, edit.added_inverters);
      undo_swap(net, pl, edit);
      if (!ok) {
        std::cerr << "micro: per-move checker failed a provable window\n";
        return pt;
      }
      ++proofs;
    } while (t.seconds() < min_time);
    gates = checker.stats().window_gates;
    pt.per_move_proofs_per_sec = static_cast<double>(proofs) / t.seconds();
    pt.per_move_window_gates = gates;
  }
  return pt;
}

OptimizerResult run_paranoid(const PreparedCircuit& prepared, const CellLibrary& lib,
                             bool session) {
  FlowOptions options;
  options.verify = false;
  options.opt.paranoid = true;
  options.opt.sat_session = session;
  return run_mode(prepared, lib, OptMode::GsgPlusGS, options).result;
}

void emit_flow_point(std::ostringstream& json, const char* key,
                     const OptimizerResult& r) {
  const MetricsRegistry& m = r.metrics;
  json << "     \"" << key << "\": {\"moves_proved\": " << r.moves_proved
       << ", \"inconclusive\": " << r.paranoid_inconclusive
       << ", \"gates_encoded\": " << m.counter("proof.gates_encoded")
       << ", \"conflicts\": " << m.counter("proof.conflicts")
       << ", \"cache_hits\": " << m.counter("proof.cache_hits")
       << ", \"roots_structural\": " << m.counter("proof.roots_structural")
       << ", \"roots_by_sat\": " << m.counter("proof.roots_by_sat")
       << ", \"learned_retained\": " << m.counter("solver.learned_kept")
       << ", \"learned_evicted\": " << m.counter("solver.learned_deleted")
       << ", \"reduce_db_rounds\": " << m.counter("solver.reduce_dbs")
       << ", \"seconds\": " << r.seconds << "}";
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_sat.json";
  std::vector<std::string> circuits = {"alu2", "c432", "c499"};
  double min_time = 0.5;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "missing value after " << a << "\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--out") {
      out_path = next();
    } else if (a == "--min-time") {
      min_time = std::stod(next());
    } else if (a == "--circuits") {
      circuits.clear();
      std::stringstream ss(next());
      std::string tok;
      while (std::getline(ss, tok, ',')) circuits.push_back(tok);
    } else {
      std::cerr << "usage: sat_session [--out FILE] [--circuits a,b,c]"
                   " [--min-time SECONDS]\n";
      return 2;
    }
  }

  const CellLibrary lib = builtin_library_035();
  std::ostringstream json;
  json << "{\n  \"bench\": \"sat_session\",\n"
       << "  \"modes\": [\"session\", \"per_move\"],\n  \"circuits\": [\n";
  bool first = true;
  for (const std::string& name : circuits) {
    std::cerr << "[sat_session] " << name << "\n";
    try {
      const Network src = map_network(make_benchmark(name), lib).mapped;
      const MicroPoint micro = micro_bench(src, lib, min_time);

      FlowOptions fopt;
      fopt.verify = false;
      const PreparedCircuit prepared = prepare_benchmark(name, lib, fopt);
      const OptimizerResult with_session = run_paranoid(prepared, lib, /*session=*/true);
      const OptimizerResult per_move = run_paranoid(prepared, lib, /*session=*/false);
      const bool verdicts_match =
          with_session.paranoid_verdicts == per_move.paranoid_verdicts;

      json << (first ? "" : ",\n") << "    {\"name\": \"" << name
           << "\", \"cells\": " << src.num_logic_gates() << ",\n"
           << "     \"micro\": {\"session_proofs_per_sec\": "
           << static_cast<long long>(micro.session_proofs_per_sec)
           << ", \"per_move_proofs_per_sec\": "
           << static_cast<long long>(micro.per_move_proofs_per_sec)
           << ", \"speedup\": "
           << (micro.per_move_proofs_per_sec > 0
                   ? micro.session_proofs_per_sec / micro.per_move_proofs_per_sec
                   : 0.0)
           << ", \"proofs\": " << micro.proofs << "},\n";
      emit_flow_point(json, "session", with_session);
      json << ",\n";
      emit_flow_point(json, "per_move", per_move);
      json << ",\n     \"verdicts_match_move_for_move\": "
           << (verdicts_match ? "true" : "false") << "}";
      first = false;
      if (!verdicts_match) {
        std::cerr << "[sat_session] WARNING: verdict mismatch on " << name << "\n";
      }
    } catch (const std::exception& e) {
      std::cerr << "error: " << e.what() << "\n";
      return 1;
    }
  }
  json << "\n  ]\n}\n";

  std::ofstream out(out_path);
  out << json.str();
  out.flush();
  std::cout << json.str();
  if (!out) {
    std::cerr << "error: failed to write " << out_path << "\n";
    return 1;
  }
  std::cerr << "wrote " << out_path << "\n";
  return 0;
}
