#include "fuzz/fuzz.hpp"

#include <filesystem>
#include <fstream>
#include <ostream>
#include <sstream>

#include "engine/rewire_engine.hpp"
#include "flow/flow.hpp"
#include "gen/random_circuit.hpp"
#include "io/blif_writer.hpp"
#include "library/cell_library.hpp"
#include "netlist/validate.hpp"
#include "util/rng.hpp"
#include "verify/equivalence.hpp"

namespace rapids {

namespace {

std::string blif_string(const Network& net) {
  std::ostringstream os;
  write_blif(net, os, "fuzz");
  return os.str();
}

OptMode mode_for_iteration(int iter) {
  switch (iter % 3) {
    case 0:
      return OptMode::GsgPlusGS;
    case 1:
      return OptMode::Gsg;
    default:
      return OptMode::GateSizing;
  }
}

/// One differential experiment: full flow at threads=1 and threads=N on a
/// source network. Returns empty string on success, else a "kind: detail"
/// failure description.
std::string run_experiment(const Network& src, OptMode mode, std::uint64_t flow_seed,
                           int threads, bool sat_crosscheck, bool paranoid_diff,
                           bool extract_diff, bool timing_damp_diff) {
  const CellLibrary& lib = builtin_library_035();
  FlowOptions fopt;
  fopt.placer.seed = flow_seed;
  fopt.placer.effort = 1.0;
  fopt.opt.max_iterations = 2;
  // Arm the engine's incremental-vs-full partition self-check: every
  // committed move cross-checks the spliced partition against a fresh full
  // extraction (throws "extract-diff mismatch" on any canonical drift).
  fopt.opt.extract_diff = extract_diff;
  // Arm the Sta's per-probe self-check: every damped propagation is
  // replayed undamped and any PO-arrival divergence throws ("timing-damp-
  // diff: ..."), so the shrinker can chase the exact probe that broke.
  fopt.opt.timing_damp_diff = timing_damp_diff;
  fopt.verify = false;  // the harness does its own, stronger checks

  try {
    const PreparedCircuit prepared = prepare_circuit("fuzz", src, lib, fopt);

    fopt.opt.threads = 1;
    const ModeRun serial = run_mode(prepared, lib, mode, fopt);
    fopt.opt.threads = threads;
    const ModeRun parallel = run_mode(prepared, lib, mode, fopt);

    if (threads > 1 && blif_string(serial.optimized) != blif_string(parallel.optimized)) {
      return "determinism: threads=1 and threads=" + std::to_string(threads) +
             " produced different netlists";
    }

    if (extract_diff) {
      // Flow-level parity: incremental partition maintenance must commit
      // the exact same move stream as full re-extraction per commit.
      FlowOptions xopt = fopt;
      xopt.opt.threads = 1;
      xopt.opt.extract_diff = false;
      xopt.opt.incremental_extraction = false;
      const ModeRun full = run_mode(prepared, lib, mode, xopt);
      if (blif_string(full.optimized) != blif_string(serial.optimized)) {
        return "extract-parity: incremental and full-rebuild-per-commit flows "
               "produced different netlists";
      }
    }

    if (timing_damp_diff) {
      // Flow-level parity: slack-margin damped propagation must produce
      // byte-identical netlists AND the identical final delay to full-cone
      // propagation — damping only changes how much of the fanout cone a
      // probe walks, never any probe objective.
      FlowOptions dopt = fopt;
      dopt.opt.threads = 1;
      dopt.opt.timing_damp = false;
      dopt.opt.timing_damp_diff = false;
      const ModeRun undamped = run_mode(prepared, lib, mode, dopt);
      if (blif_string(undamped.optimized) != blif_string(serial.optimized)) {
        return "timing-damp: damped and full-cone flows produced different "
               "netlists";
      }
      if (undamped.result.final_delay != serial.result.final_delay) {
        return "timing-damp: damped and full-cone flows report different "
               "final delays (" + std::to_string(serial.result.final_delay) +
               " vs " + std::to_string(undamped.result.final_delay) + ")";
      }
    }

    if (paranoid_diff) {
      // Prover differential: the incremental proof session and the
      // per-move throwaway solver must accept the same commit stream with
      // move-for-move compatible verdicts, and neither may perturb the
      // optimization result. "Compatible" because the session window is
      // strictly STRONGER than the per-move window (cached cones carry
      // more structure): where per-move incompleteness forces a full-miter
      // escalation, the session may window-prove the same move directly.
      // Both still keep the move, so the netlists must stay byte-equal.
      // An Inconclusive reject (conservative, budget-driven) legitimately
      // drops a move the plain run kept, so the netlist cross-checks only
      // apply to inconclusive-free runs — at the default budgets on fuzz-
      // sized circuits that is every run.
      FlowOptions popt = fopt;
      popt.opt.threads = 1;
      popt.opt.paranoid = true;
      popt.opt.sat_session = true;
      const ModeRun with_session = run_mode(prepared, lib, mode, popt);
      popt.opt.sat_session = false;
      const ModeRun per_move = run_mode(prepared, lib, mode, popt);
      const auto& sv = with_session.result.paranoid_verdicts;
      const auto& pv = per_move.result.paranoid_verdicts;
      if (sv.size() != pv.size()) {
        return "paranoid: prover modes checked different move counts (" +
               std::to_string(sv.size()) + " vs " + std::to_string(pv.size()) + ")";
      }
      constexpr auto kWindow = static_cast<std::uint8_t>(ProofVerdict::WindowProved);
      constexpr auto kEscalated =
          static_cast<std::uint8_t>(ProofVerdict::EscalatedProved);
      bool any_inconclusive = false;
      for (std::size_t i = 0; i < sv.size(); ++i) {
        const bool compatible =
            sv[i] == pv[i] || (sv[i] == kWindow && pv[i] == kEscalated);
        if (!compatible) {
          return "paranoid: incompatible proof verdicts at move " +
                 std::to_string(i) + " (session " + std::to_string(sv[i]) +
                 " vs per-move " + std::to_string(pv[i]) + ")";
        }
        if (sv[i] != kWindow && sv[i] != kEscalated) any_inconclusive = true;
      }
      if (!any_inconclusive) {
        if (blif_string(with_session.optimized) != blif_string(serial.optimized)) {
          return "paranoid: session-mode paranoid flow diverged from the plain flow";
        }
        if (blif_string(with_session.optimized) != blif_string(per_move.optimized)) {
          return "paranoid: session-mode and per-move-solver netlists differ";
        }
        if (with_session.result.moves_proved != per_move.result.moves_proved) {
          return "paranoid: proved-move counts differ between prover modes";
        }
      }
    }

    EquivalenceOptions eopt;
    eopt.sat_proof = sat_crosscheck;
    const EquivalenceResult eq = check_equivalence(prepared.mapped, serial.optimized, eopt);
    if (!eq.equivalent) {
      return "equivalence: optimized netlist differs at output " + eq.failing_output;
    }

    const auto problems = validate(serial.optimized);
    if (!problems.empty()) {
      return "structure: " + problems.front();
    }
  } catch (const std::exception& e) {
    const std::string what = e.what();
    if (what.find("extract-diff mismatch") != std::string::npos) {
      return "extract-diff: " + what;  // distinct kind: the shrinker chases it
    }
    if (what.find("timing-damp-diff") != std::string::npos) {
      return "timing-damp-diff: " + what;  // per-probe PO-arrival divergence
    }
    return "exception: " + what;
  }
  return "";
}

}  // namespace

Network shrink_network(const Network& src,
                       const std::function<bool(const Network&)>& still_fails,
                       int budget) {
  Network best = src.clone();
  // One scratch network for every trial mutation: copy-assignment reuses
  // its arena/adjacency-pool capacity, so a shrink run allocates O(1)
  // networks instead of one fresh clone per probe.
  Network candidate;
  bool progress = true;
  while (progress && budget > 0) {
    progress = false;

    // Pass 1: drop primary outputs (fastest way to lose whole cones).
    if (best.primary_outputs().size() > 1) {
      const std::vector<GateId> pos(best.primary_outputs().begin(),
                                    best.primary_outputs().end());
      for (const GateId po : pos) {
        if (budget <= 0) break;
        if (best.primary_outputs().size() <= 1) break;
        candidate = best;
        candidate.delete_gate(po);
        candidate.sweep_dangling();
        --budget;
        if (still_fails(candidate)) {
          std::swap(best, candidate);
          progress = true;
        }
      }
    }

    // Pass 2: bypass logic gates (reconnect their sinks to their first
    // fanin). Descending id order tends to unravel from the outputs down.
    std::vector<GateId> gates;
    for (const GateId g : best.gates()) {
      if (is_logic(best.type(g)) && best.fanin_count(g) >= 1) gates.push_back(g);
    }
    for (auto it = gates.rbegin(); it != gates.rend() && budget > 0; ++it) {
      const GateId g = *it;
      if (best.is_deleted(g)) continue;  // removed by an earlier bypass sweep
      candidate = best;
      candidate.replace_all_fanouts(g, candidate.fanin(g, 0));
      candidate.delete_gate(g);
      candidate.sweep_dangling();
      if (!validate(candidate).empty()) continue;
      --budget;
      if (still_fails(candidate)) {
        std::swap(best, candidate);
        progress = true;
      }
    }
  }
  return best;
}

FuzzResult run_fuzz(const FuzzOptions& options, std::ostream& log) {
  FuzzResult result;
  for (int iter = 0; iter < options.iterations; ++iter) {
    ++result.iterations;
    const RandomCircuitOptions profile = random_fuzz_profile(
        options.seed, static_cast<std::uint64_t>(iter), options.max_inputs,
        options.max_gates);
    const std::uint64_t circuit_seed =
        Rng::substream(options.seed, static_cast<std::uint64_t>(iter) * 2).next_u64();
    const Network src = random_network(circuit_seed, profile);
    const OptMode mode = mode_for_iteration(iter);
    const char* mode_name = to_string(mode);
    const std::uint64_t flow_seed = options.seed + static_cast<std::uint64_t>(iter);

    const std::string failure = run_experiment(src, mode, flow_seed, options.threads,
                                               options.sat_crosscheck,
                                               options.paranoid_diff,
                                               options.extract_diff,
                                               options.timing_damp_diff);
    if (failure.empty()) {
      log << "[fuzz] iter " << iter << " mode " << mode_name << " ("
          << src.num_logic_gates() << " gates): ok\n";
      continue;
    }

    FuzzFailure f;
    f.iteration = iter;
    f.circuit_seed = circuit_seed;
    f.mode = mode_name;
    const std::size_t colon = failure.find(':');
    f.kind = failure.substr(0, colon);
    f.detail = failure;
    log << "[fuzz] iter " << iter << " mode " << mode_name << " FAILED: " << failure
        << "\n";

    Network minimal = src.clone();
    if (options.shrink) {
      // Chase the SAME failure kind: a degenerate candidate that fails for
      // an unrelated reason (e.g. a mapper exception) must not be accepted.
      const auto still_fails = [&](const Network& candidate) {
        const std::string err = run_experiment(candidate, mode, flow_seed,
                                               options.threads, options.sat_crosscheck,
                                               options.paranoid_diff,
                                               options.extract_diff,
                                               options.timing_damp_diff);
        return !err.empty() && err.compare(0, f.kind.size(), f.kind) == 0;
      };
      minimal = shrink_network(src, still_fails, options.shrink_budget);
      log << "[fuzz]   shrunk " << src.num_gates() << " -> " << minimal.num_gates()
          << " gates\n";
    }

    if (!options.repro_dir.empty()) {
      std::filesystem::create_directories(options.repro_dir);
      const std::string stem = options.repro_dir + "/fuzz_" +
                               std::to_string(options.seed) + "_iter" +
                               std::to_string(iter);
      write_blif_file(minimal, stem + ".blif", "fuzz_repro");
      std::ofstream txt(stem + ".txt");
      txt << "fuzz failure\n"
          << "  kind:         " << f.kind << "\n"
          << "  detail:       " << f.detail << "\n"
          << "  mode:         " << f.mode << "\n"
          << "  harness seed: " << options.seed << " (iteration " << iter << ")\n"
          << "  circuit seed: " << circuit_seed << "\n"
          << "  flow seed:    " << flow_seed << "\n"
          << "  threads:      1 vs " << options.threads << "\n";
      // The harness runs the flow with effort=1 / 2 optimizer iterations
      // (see run_experiment); the repro command must pin both or the CLI
      // defaults run a different schedule and the bug may not reproduce.
      const std::string base = "rapids flow " + stem + ".blif --mode " + f.mode +
                               " --seed " + std::to_string(flow_seed) +
                               " --effort 1 --iters 2";
      if (f.kind == "determinism") {
        txt << "repro: " << base << " --threads 1 --out " << stem << "_t1.blif\n"
            << "       " << base << " --threads " << options.threads << " --out "
            << stem << "_tN.blif\n"
            << "       cmp " << stem << "_t1.blif " << stem << "_tN.blif\n";
      } else if (f.kind == "timing-damp" || f.kind == "timing-damp-diff") {
        txt << "repro: " << base << " --threads 1 --timing-damp-diff --out "
            << stem << "_damp.blif\n"
            << "       " << base << " --threads 1 --no-timing-damp --out "
            << stem << "_full.blif\n"
            << "       cmp " << stem << "_damp.blif " << stem << "_full.blif\n";
      } else if (f.kind == "extract-diff" || f.kind == "extract-parity") {
        txt << "repro: " << base << " --extract-diff --threads 1 --out " << stem
            << "_inc.blif\n"
            << "       " << base << " --no-incremental --threads 1 --out " << stem
            << "_full.blif\n"
            << "       cmp " << stem << "_inc.blif " << stem << "_full.blif\n";
      } else {
        txt << "repro: " << base << " --sat-verify --threads 1\n";
      }
      f.repro_path = stem + ".blif";
      log << "[fuzz]   reproducer written to " << f.repro_path << "\n";
    }
    result.failures.push_back(std::move(f));
  }

  log << "[fuzz] " << result.iterations << " iterations, " << result.failures.size()
      << " failure(s)\n";
  return result;
}

}  // namespace rapids
