#include "fuzz/fuzz.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <optional>
#include <ostream>
#include <sstream>

#include "engine/rewire_engine.hpp"
#include "gen/large.hpp"
#include "gen/random_circuit.hpp"
#include "io/bench_reader.hpp"
#include "io/bench_writer.hpp"
#include "io/blif_writer.hpp"
#include "library/cell_library.hpp"
#include "netlist/validate.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"
#include "verify/equivalence.hpp"

namespace rapids {

namespace {

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

/// One row's run against the reference; "" when it reproduces it. The
/// per-move prover's verdicts must be compatible with the session
/// prover's, move for move: equal, or window-proved by the session where
/// the per-move window escalated to a full miter (cached cones carry more
/// structure than a fresh window). Both keep the move either way.
std::string compare_row(const ModeRun& ref, const std::string& ref_blif, const ModeRun& run,
                        const OptimizerOptions& opt,
                        const std::optional<std::vector<std::uint8_t>>& session_verdicts) {
  if (!run.verified) return "verification failed";
  const std::vector<std::uint8_t>& verdicts = run.result.paranoid_verdicts;
  if (opt.paranoid && !opt.sat_session) {
    const std::vector<std::uint8_t>& session = *session_verdicts;
    if (session.size() != verdicts.size()) return "prover modes checked different move counts";
    constexpr auto kWindow = static_cast<std::uint8_t>(ProofVerdict::WindowProved);
    constexpr auto kEscalated = static_cast<std::uint8_t>(ProofVerdict::EscalatedProved);
    for (std::size_t i = 0; i < verdicts.size(); ++i) {
      if (session[i] != verdicts[i] && !(session[i] == kWindow && verdicts[i] == kEscalated)) {
        return "incompatible proof verdicts at move " + std::to_string(i) + " (session " +
               std::to_string(session[i]) + " vs per-move " + std::to_string(verdicts[i]) +
               ")";
      }
    }
  }
  // An inconclusive (budget-driven) reject drops a move the plain run
  // keeps, so only inconclusive-free runs must match the reference.
  constexpr auto kInconclusive = static_cast<std::uint8_t>(ProofVerdict::Inconclusive);
  if (std::count(verdicts.begin(), verdicts.end(), kInconclusive) > 0) return "";
  if (blif_text(run.optimized) != ref_blif) return "netlist differs from the reference";
  if (run.result.final_delay != ref.result.final_delay) {
    return "final delay " + std::to_string(run.result.final_delay) + " vs reference " +
           std::to_string(ref.result.final_delay);
  }
  if (run.result.swaps_committed != ref.result.swaps_committed ||
      run.result.resizes_committed != ref.result.resizes_committed) {
    return "commit counts differ from the reference";
  }
  return "";
}

/// One fuzz experiment on a source network: the exactness rows, then
/// equivalence and structure of the reference netlist. Returns "" on
/// success, else a "kind: detail" failure description.
std::string run_experiment(const Network& src, OptMode mode, std::uint64_t flow_seed,
                           int threads, bool sat_crosscheck,
                           const std::vector<ExactnessOracle>& rows) {
  const CellLibrary& lib = builtin_library_035();
  FlowOptions fopt;
  fopt.placer.seed = flow_seed;
  fopt.placer.effort = 1.0;
  fopt.opt.max_iterations = 2;
  fopt.verify = false;  // the harness does its own, stronger checks

  try {
    // Run the circuit as `rapids flow` reads back its .bench reproducer
    // (gate order and ids included), so the repro commands see this run.
    std::stringstream bench;
    write_bench(src, bench);
    const PreparedCircuit prepared = prepare_circuit("fuzz", read_bench(bench), lib, fopt);
    Network reference;
    const std::string failure = check_exactness(
        prepared, lib, mode, fopt, threads, rows,
        [&reference](const ExactnessOracle* row, const ModeRun& run) {
          if (row == nullptr) reference = run.optimized;
        });
    if (!failure.empty()) return failure;

    EquivalenceOptions eopt;
    eopt.sat_proof = sat_crosscheck;
    const EquivalenceResult eq = check_equivalence(prepared.mapped, reference, eopt);
    if (!eq.equivalent) {
      return "equivalence: optimized netlist differs at output " + eq.failing_output;
    }

    const auto problems = validate(reference);
    if (!problems.empty()) {
      return "structure: " + problems.front();
    }
  } catch (const std::exception& e) {
    return std::string("exception: ") + e.what();
  }
  return "";
}

}  // namespace

std::string ExactnessOracle::flow_flags(int threads) const {
  if (!parallel) return flags;
  return "--threads " + std::to_string(threads) + (flags.empty() ? "" : " " + flags);
}

void ExactnessOracle::apply(OptimizerOptions& opt, int threads) const {
  apply_optimizer_flags(flow_flags(threads), opt);
}

std::vector<ExactnessOracle> exactness_oracles() {
  // The self-checks run on N workers too, so damp-diff also checks the
  // probe replicas' damping margins.
  return {
      {"threads", true, ""},
      {"clone-sync", true, "--no-delta-sync"},
      {"full-extraction", false, "--no-incremental"},
      {"extract-diff", true, "--extract-diff"},
      {"undamped", false, "--no-timing-damp"},
      {"damp-diff", true, "--timing-damp-diff"},
      {"no-prune-cache", false, "--no-prune-cache"},
      {"paranoid", false, "--paranoid"},
      {"per-move-prover", false, "--paranoid --no-sat-session"},
  };
}

std::vector<ExactnessOracle> exactness_oracles(
    std::initializer_list<std::string_view> names) {
  const std::vector<ExactnessOracle> all = exactness_oracles();
  std::vector<ExactnessOracle> rows;
  for (const std::string_view name : names) {
    const auto it = std::find_if(all.begin(), all.end(),
                                 [name](const ExactnessOracle& row) { return row.name == name; });
    if (it == all.end()) throw InputError("unknown exactness oracle: " + std::string(name));
    rows.push_back(*it);
  }
  return rows;
}

std::string check_exactness(const PreparedCircuit& prepared, const CellLibrary& lib,
                            OptMode mode, const FlowOptions& base, int threads,
                            const std::vector<ExactnessOracle>& rows,
                            const ExactnessObserver& observe) {
  FlowOptions ref_options = base;
  ref_options.opt.threads = 1;
  const ModeRun ref = run_mode(prepared, lib, mode, ref_options);
  if (observe) observe(nullptr, ref);
  if (!ref.verified) return "reference: verification failed";
  const std::string ref_blif = blif_text(ref.optimized);

  std::optional<std::vector<std::uint8_t>> session_verdicts;  // of the session prover
  for (const ExactnessOracle& row : rows) {
    FlowOptions options = ref_options;
    row.apply(options.opt, threads);
    const OptimizerOptions& opt = options.opt;
    std::string detail;
    try {
      const ModeRun run = run_mode(prepared, lib, mode, options);
      if (observe) observe(&row, run);
      if (opt.paranoid && opt.sat_session) session_verdicts = run.result.paranoid_verdicts;
      if (opt.paranoid && !opt.sat_session && !session_verdicts) {
        FlowOptions session = options;  // no session-prover row ran first
        session.opt.sat_session = true;
        session_verdicts = run_mode(prepared, lib, mode, session).result.paranoid_verdicts;
      }
      detail = compare_row(ref, ref_blif, run, opt, session_verdicts);
    } catch (const std::exception& e) {
      detail = e.what();  // a self-check the row armed
    }
    if (!detail.empty()) return row.name + ": " + detail;
  }
  return "";
}

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
  const std::vector<ExactnessOracle> all_rows = exactness_oracles();
  for (int iter = 0; iter < options.iterations; ++iter) {
    ++result.iterations;
    const RandomCircuitOptions profile = random_fuzz_profile(
        options.seed, static_cast<std::uint64_t>(iter), options.max_inputs,
        options.max_gates);
    const std::uint64_t circuit_seed =
        Rng::substream(options.seed, static_cast<std::uint64_t>(iter) * 2).next_u64();
    // Every fourth circuit comes from the gen: profile. Random circuits never
    // grow a supergate wide enough to prune its swap list (no-prune-cache).
    const LargeCircuitOptions large{.target_gates = std::size_t(profile.num_gates),
                                    .seed = circuit_seed};
    const Network src = iter % 4 == 3 ? make_large_circuit(large)
                                      : random_network(circuit_seed, profile);
    const OptMode mode = mode_for_iteration(iter);
    const char* mode_name = to_string(mode);
    const std::uint64_t flow_seed = options.seed + static_cast<std::uint64_t>(iter);

    const std::string failure = run_experiment(src, mode, flow_seed, options.threads,
                                               options.sat_crosscheck, all_rows);
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
    // Shrinking re-runs only the failing row; any other kind is a fault of
    // the reference run itself, which needs no row.
    const auto row = std::find_if(all_rows.begin(), all_rows.end(),
                                  [&f](const ExactnessOracle& r) { return r.name == f.kind; });
    std::vector<ExactnessOracle> failing_rows;
    if (row != all_rows.end()) failing_rows.push_back(*row);

    Network minimal = src.clone();
    if (options.shrink) {
      // Chase the SAME failure kind: a degenerate candidate that fails for
      // an unrelated reason (e.g. a mapper exception) must not be accepted.
      const auto still_fails = [&](const Network& candidate) {
        const std::string err = run_experiment(candidate, mode, flow_seed, options.threads,
                                               options.sat_crosscheck, failing_rows);
        return !err.empty() && err.compare(0, f.kind.size() + 1, f.kind + ":") == 0;
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
      write_bench_file(minimal, stem + ".bench");
      std::ofstream txt(stem + ".txt");
      txt << "fuzz failure\n"
          << "  kind:         " << f.kind << "\n"
          << "  detail:       " << f.detail << "\n"
          << "  mode:         " << f.mode << "\n"
          << "  harness seed: " << options.seed << " (iteration " << iter << ")\n"
          << "  circuit seed: " << circuit_seed << "\n"
          << "  flow seed:    " << flow_seed << "\n";
      // The harness runs the flow with effort=1 / 2 optimizer iterations
      // (see run_experiment); the repro command must pin both or the CLI
      // defaults run a different schedule and the bug may not reproduce.
      // The second command runs the failing row's configuration (the
      // reference itself for any other kind), SAT-verified.
      const std::string base = "rapids flow " + stem + ".bench --mode " + f.mode +
                               " --seed " + std::to_string(flow_seed) +
                               " --effort 1 --iters 2";
      const std::string flags =
          row == all_rows.end() ? "" : " " + row->flow_flags(options.threads);
      txt << "repro: " << base << " --out " << stem << "_ref.blif\n"
          << "       " << base << flags << " --sat-verify --out " << stem << "_row.blif\n"
          << "       cmp " << stem << "_ref.blif " << stem << "_row.blif\n";
      // Both provers keep every move, so cmp cannot show a proof-verdict
      // mismatch; their provenance dumps list the verdicts in move order.
      OptimizerOptions row_opt;
      if (row != all_rows.end()) row->apply(row_opt, options.threads);
      if (row_opt.paranoid && !row_opt.sat_session) {
        txt << "verdicts: " << base << " --paranoid --provenance " << stem << "_session.json\n"
            << "          " << base << flags << " --provenance " << stem << "_row.json\n"
            << "  (their proof_* events, counted from 0, differ at the move in detail)\n";
      }
      f.repro_path = stem + ".bench";
      log << "[fuzz]   reproducer written to " << f.repro_path << "\n";
    }
    result.failures.push_back(std::move(f));
  }

  log << "[fuzz] " << result.iterations << " iterations, " << result.failures.size()
      << " failure(s)\n";
  return result;
}

}  // namespace rapids
