// rapids — command-line driver for the RAPIDS rewiring flow.
//
//   rapids flow <circuit|file.blif|file.bench|gen:<gates>[:seed]>
//          [--mode gsg|gs|gsg+gs]
//          [--seed N] [--effort F] [--iters N] [--threads N] [--buffers]
//          [--out out.blif] [--place-out placement.txt] [--no-verify]
//          [--sat-verify] [--paranoid] [--no-sat-session]
//          [--no-incremental] [--extract-diff] [--no-delta-sync]
//          [--no-prune-cache] [--no-timing-damp] [--timing-damp-diff]
//          [--trace out.json] [--metrics-json out.json]
//          [--provenance out.json]
//       Map, place, optimize and report; optionally write results.
//       gen:<gates>[:seed] runs the synthetic large-circuit profile
//       (mixed arithmetic/control/ecc blocks; see src/gen/large.hpp).
//       --threads N fans probe evaluation out to N workers; the result is
//       bit-identical to --threads 1 (deterministic commit arbitration).
//       --sat-verify escalates the final equivalence check to a SAT proof;
//       --paranoid SAT-proves every committed move on its window, through
//       one persistent incremental proof session by default
//       (--no-sat-session falls back to a throwaway solver per move).
//       --no-incremental re-extracts the whole supergate partition after
//       every commit (the pre-incremental behavior; same netlist);
//       --extract-diff cross-checks the incremental partition against a
//       fresh full extraction after every commit (slow; self-check).
//       --no-delta-sync re-clones probe replicas every epoch instead of
//       shipping O(dirty) deltas; --no-prune-cache re-enumerates pruned
//       swap lists every phase; --no-timing-damp propagates every probe's
//       full fanout cone instead of stopping at the slack-margin cutoff.
//       All are A/B levers: same netlist. --timing-damp-diff replays every
//       damped probe undamped and aborts if any PO arrival moves
//       (self-check). Each is a row of the exactness-oracle table (src/fuzz),
//       applied there by this CLI's parse_optimizer_flag (src/flow).
//       --trace writes a Chrome trace-event JSON of the run (one track per
//       probe worker; load in Perfetto or chrome://tracing), --metrics-json
//       a machine-readable counter/gauge/histogram snapshot, --provenance
//       the per-move decision stream (probe win -> arbitration verdict ->
//       commit/rollback -> proof verdict). All three only OBSERVE: the
//       optimized netlist is byte-identical with them on or off. The flow
//       runs on one SessionContext with id "default", which keys the
//       metrics ("session.id") and provenance ("session") dumps and tags
//       the flow's log lines. A committed provenance chain that fails its
//       self-check fails the run (exit 1), as it fails a served job.
//
//   rapids serve [--jobs file] [--max-concurrent N]
//       Long-lived multi-job driver: read job lines (`<id> <circuit>
//       [key=value ...]`, see src/serve/serve.hpp) from --jobs or stdin
//       until EOF/"quit", run up to N flows concurrently — each on its own
//       SessionContext (private tracer/metrics/provenance, persistent
//       worker pool) — and write per-job artifacts keyed by session id.
//       A job line parses into the same FlowJob as the equivalent
//       one-shot `rapids flow` invocation and runs through the same
//       run_flow_job, so its outputs are byte-identical to that run's;
//       its log lines carry the job id as tag.
//
//   rapids bench-diff <baseline.json> <current.json>
//          [--fail-above pattern=pct]... [--fail-below pattern=pct]...
//          [--all]
//       Compare two metrics/BENCH_*.json snapshots: every numeric leaf is
//       projected onto its dotted path and diffed. Threshold rules turn
//       deltas into failures (exit 1): --fail-above time.*=10 fails when a
//       matching value grew more than 10%, --fail-below rate.*=40 when it
//       dropped more than 40%. --all prints unchanged keys too.
//
//   rapids bench <engine|sta|parallel|sat|extract|scale|linear>
//          [--out FILE] [--circuits a,b,c] [--min-time SECONDS]
//          [--threads n,m] [--iters N] [--baseline FILE]
//       Run one suite of the bench table (src/bench) and write its metrics
//       snapshot (stdout without --out); `rapids bench-diff` gates it
//       against a committed BENCH_<suite>.json. --baseline pairs the run
//       with a snapshot of the same suite from another build, measured in
//       the same session on the same host. Exits 1 when a hard check of
//       the suite fails (netlist or verdict parity, load skew, sync growth).
//
//   rapids trace-check <trace.json>
//       Validate a --trace output against the Chrome trace-event schema
//       (used by CI's trace-smoke job); prints span categories and tracks.
//
//   rapids fuzz [--seed N] [--iters N] [--threads N] [--max-gates N]
//          [--max-inputs N] [--no-sat] [--no-shrink] [--out-dir DIR]
//       Differential fuzzing: each random circuit (every fourth from the
//       gen: profile) runs the reference flow (--threads 1, defaults) and
//       every row of the exactness-oracle table (thread count, clone
//       sync, full extraction, extract-diff, undamped timing, damp-diff,
//       no prune cache, both paranoid provers), all of which must write
//       the reference's BLIF; the reference netlist is cross-checked
//       against the input by random vectors + SAT. Failures shrink to
//       minimal .bench reproducers.
//
//   rapids symmetry <circuit|file.blif|file.bench>
//       Supergate / symmetry / redundancy report for a mapped circuit.
//
//   rapids table1 [--full|--quick] [--threads N] [circuit...]
//       The Table 1 harness: reruns gsg, GS and gsg+GS from one mapped,
//       placed starting point per circuit and prints the paper's table.
//
//   rapids list
//       Show the built-in benchmark suite.
//
//   --log-level debug|info|warn|error|off (any position, any subcommand)
//       Threshold of the one process logger, which every flow and serve
//       job logs through. Lines read `[rapids:LEVEL <session-tag> wN] msg`;
//       the session tag and worker id appear when set.
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench.hpp"
#include "flow/flow.hpp"
#include "fuzz/fuzz.hpp"
#include "gen/suite.hpp"
#include "library/cell_library.hpp"
#include "mapping/mapper.hpp"
#include "serve/serve.hpp"
#include "session/session.hpp"
#include "sym/gisg.hpp"
#include "sym/symmetry.hpp"
#include "trace/bench_diff.hpp"
#include "trace/metrics.hpp"
#include "trace/trace.hpp"
#include "util/log.hpp"

namespace {

using namespace rapids;

int cmd_list() {
  std::cout << "built-in benchmark suite (regenerated Table 1 circuits):\n";
  for (const BenchmarkInfo& info : benchmark_suite()) {
    std::cout << "  " << info.name << "  (" << info.family << ", ~" << info.paper_gates
              << " gates in the paper)\n";
  }
  return 0;
}

int cmd_symmetry(const std::string& target) {
  const CellLibrary lib = builtin_library_035();
  const Network src = load_circuit(target);
  const Network net = map_network(src, lib).mapped;
  const GisgPartition part = extract_gisg(net);
  const auto swaps = enumerate_all_swaps(part, net);
  std::size_t noninv = 0;
  for (const SwapCandidate& c : swaps) {
    if (c.polarity == SwapPolarity::NonInverting) ++noninv;
  }
  std::cout << target << ": " << net.num_logic_gates() << " mapped cells\n"
            << "  supergates:        " << part.sgs.size() << " (" << part.num_nontrivial()
            << " non-trivial)\n"
            << "  coverage:          " << 100.0 * part.nontrivial_coverage(net) << "%\n"
            << "  largest supergate: " << part.max_leaves() << " inputs\n"
            << "  redundancies:      " << part.redundancies.size() << "\n"
            << "  swappable pairs:   " << swaps.size() << " (" << noninv
            << " non-inverting, " << swaps.size() - noninv << " inverting)\n";
  return 0;
}

int cmd_flow(const std::vector<std::string>& args) {
  const FlowJob job = parse_flow_args(args);
  // The one-shot flow runs on one session, built the way `rapids serve`
  // builds one per job; its id keys the metrics and provenance dumps and
  // tags this flow's log lines.
  SessionContext session("default");
  const FlowJobResult run = run_flow_job(job, builtin_library_035(), session);
  std::cout << job.target << ": " << run.cells << " cells placed, initial delay "
            << run.initial_delay << " ns\n";

  // Summary lines read the session's registry, the one --metrics-json
  // writes (run_mode merged the run's metrics into it).
  const OptimizerResult& r = run.result;
  const MetricsRegistry& reg = session.metrics();
  const auto count = [&reg](const char* name) { return reg.counter(name); };
  const auto secs = [&reg](const char* name) { return reg.gauge(name); };
  const std::uint64_t probes = count("engine.probes");
  std::cout << to_string(job.mode) << ": delay " << r.initial_delay << " -> "
            << r.final_delay << " ns (" << r.improvement_percent() << "%), area "
            << r.area_delta_percent() << "%, " << r.swaps_committed << " swaps / "
            << r.resizes_committed << " resizes, " << probes << " probes on "
            << r.threads << (r.threads == 1 ? " thread, " : " threads, ")
            << r.seconds << " s"
            << (job.options.verify ? (run.verified ? ", verified" : ", VERIFY FAILED")
                                   : "")
            << "\n";
  const std::uint64_t full_rebuilds = count("partition.full_rebuilds");
  std::cout << "partition: " << count("partition.sgs_reextracted")
            << " sgs re-extracted / " << count("partition.sgs_reused") << " reused over "
            << count("partition.incremental_updates") << " incremental updates, "
            << count("partition.groups_reused") << " probe groups served from cache, "
            << full_rebuilds << " full rebuild" << (full_rebuilds == 1 ? "" : "s")
            << "\n";
  // Every bucket is disjoint (sync and margins are quoted inside probe, not
  // added), so the sum tracks the optimize total; the optimizer itself
  // warns when the unattributed remainder exceeds 5%.
  std::cout << "phases: setup " << secs("time.setup_s") << " s, groups "
            << secs("time.groups_s") << " s, probe " << secs("time.probe_s")
            << " s (incl. sync " << secs("time.sync_s") << " s, margins "
            << secs("time.timing_s") << " s), arbitrate " << secs("time.arbitrate_s")
            << " s, commit " << secs("time.commit_s") << " s, finalize "
            << secs("time.finalize_s") << " s, other " << secs("time.unattributed_s")
            << " s = " << r.seconds << " s\n";
  if (const Histogram* gains = reg.histogram("hist.probe_gain_ns");
      gains != nullptr && gains->count() > 0) {
    std::cout << "gains: committed-move gain (ns) " << gains->to_string() << "\n";
  }
  std::cout << "scale: " << count("engine.canonicalize_calls") << " canonicalize calls / "
            << count("engine.gates_canonicalized") << " gates re-sorted after setup, "
            << count("engine.candidates_enumerated") << " swap candidates enumerated, "
            << count("engine.pruned_groups_cached")
            << " pruned lists served by slack epoch; replica sync "
            << count("sync.delta_syncs") << " delta (" << count("sync.bytes_delta")
            << " B over " << count("sync.delta_commits") << " commits) / "
            << count("sync.full_syncs") << " full (" << count("sync.bytes_full")
            << " B)\n";
  // Propagation shape: how much of the structural fanout cone each probe
  // actually walked, and how much the slack-margin cutoff suppressed.
  if (probes > 0) {
    const std::uint64_t propagated = count("timing.gates_propagated");
    const std::uint64_t cutoffs = count("timing.damp_cutoffs");
    const double visited = static_cast<double>(propagated);
    const double suppressed = static_cast<double>(cutoffs);
    std::cout << "timing: " << propagated << " gates propagated ("
              << visited / static_cast<double>(probes) << " per probe), "
              << count("timing.probes_pruned") << " probes pruned off the critical path, "
              << count("timing.probes_bounded") << " stopped at their bound, "
              << cutoffs << " damp cutoffs ("
              << (visited + suppressed > 0.0
                      ? 100.0 * suppressed / (visited + suppressed)
                      : 0.0)
              << "%), " << count("timing.damp_fallbacks") << " undamped replays, "
              << count("timing.margin_refreshes") << " margin refreshes\n";
  }
  if (job.options.opt.paranoid) {
    std::cout << "paranoid: " << r.moves_proved
              << " committed moves SAT-proved on their windows ("
              << (job.options.opt.sat_session ? "incremental session" : "per-move solver")
              << ": " << count("proof.gates_encoded") << " gates encoded, "
              << count("proof.conflicts") << " conflicts";
    if (job.options.opt.sat_session) {
      std::cout << ", " << count("proof.cache_hits") << " cone cache hits, "
                << count("solver.learned_kept") << " learned clauses retained / "
                << count("solver.learned_deleted") << " evicted over "
                << count("solver.reduce_dbs") << " reduce_db rounds";
    }
    std::cout << ")\n";
    if (const Histogram* conflicts = reg.histogram("hist.proof_conflicts");
        conflicts != nullptr && conflicts->count() > 0) {
      std::cout << "proof-conflicts: per-move " << conflicts->to_string() << "\n";
    }
  }

  if (!job.out_trace.empty()) {
    std::cout << "wrote " << job.out_trace << " (" << session.tracer().recorded()
              << " events, " << session.tracer().dropped() << " dropped)\n";
  }
  if (job.buffers) {
    std::cout << "fanout-opt: " << run.fanout.buffers_inserted << " buffers, delay "
              << run.fanout.initial_delay << " -> " << run.fanout.final_delay << " ns\n";
  }
  if (!job.out_blif.empty()) std::cout << "wrote " << job.out_blif << "\n";
  if (!job.out_metrics.empty()) {
    std::cout << "wrote " << job.out_metrics << " (" << reg.size() << " metrics)\n";
  }
  if (!job.out_provenance.empty()) {
    std::cout << "wrote " << job.out_provenance << " ("
              << session.provenance().records().size() << " events, "
              << run.provenance_chains << " committed chains resolved)\n";
  }
  if (!job.out_place.empty()) std::cout << "wrote " << job.out_place << "\n";
  return run.verified ? 0 : 1;
}

int cmd_table1(const std::vector<std::string>& args) {
  bool quick = false, full = false;
  int threads = 1;
  std::vector<std::string> names;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    if (a == "--quick") {
      quick = true;
    } else if (a == "--full") {
      full = true;
    } else if (a == "--threads") {
      if (i + 1 >= args.size()) throw InputError("missing value after --threads");
      threads = parse_thread_count(a, args[++i]);
    } else {
      names.push_back(a);
    }
  }
  if (names.empty()) {
    if (quick) {
      names = {"alu2", "c432", "c499"};
    } else {
      for (const BenchmarkInfo& info : benchmark_suite()) {
        if (!full && info.paper_gates > 3000) continue;
        names.push_back(info.name);
      }
    }
  }
  const CellLibrary lib = builtin_library_035();
  FlowOptions options;
  options.placer.effort = 4.0;
  options.opt.max_iterations = 4;
  options.opt.threads = threads;
  std::vector<BenchmarkRow> rows;
  for (const std::string& name : names) {
    std::cerr << "[table1] " << name << "\n";
    const PreparedCircuit prepared = prepare_benchmark(name, lib, options);
    rows.push_back(produce_table1_row(prepared, lib, options));
  }
  print_table1(rows, std::cout);
  return 0;
}

std::string read_file_text(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw InputError("cannot read " + path);
  std::ostringstream ss;
  ss << is.rdbuf();
  return ss.str();
}

int cmd_bench_diff(const std::vector<std::string>& args) {
  std::vector<std::string> files;
  std::vector<DiffRule> rules;
  bool only_changed = true;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= args.size()) throw InputError("missing value after " + a);
      return args[++i];
    };
    if (a == "--fail-above") {
      rules.push_back(parse_diff_rule(next(), /*above=*/true));
    } else if (a == "--fail-below") {
      rules.push_back(parse_diff_rule(next(), /*above=*/false));
    } else if (a == "--all") {
      only_changed = false;
    } else if (!a.empty() && a[0] == '-') {
      throw InputError("unknown bench-diff flag: " + a);
    } else {
      files.push_back(a);
    }
  }
  if (files.size() != 2) {
    throw InputError("bench-diff: expected exactly two JSON files, got " +
                     std::to_string(files.size()));
  }
  const DiffReport report = diff_metrics_json(read_file_text(files[0]),
                                              read_file_text(files[1]), rules);
  write_diff_report(std::cout, report, rules, only_changed);
  return report.violations > 0 ? 1 : 0;
}

int cmd_bench(const std::vector<std::string>& args) {
  const BenchArgs bench = parse_bench_args(args);
  const std::string baseline = bench.baseline.empty() ? "" : read_file_text(bench.baseline);
  MetricsRegistry reg;
  const BenchFailures failures = run_bench(bench, builtin_library_035(), reg);
  if (!baseline.empty()) merge_baseline(reg, baseline);
  if (bench.out.empty()) {
    reg.write_json(std::cout);
  } else {
    std::ofstream os(bench.out);
    reg.write_json(os);
    if (!os) throw InputError("cannot write " + bench.out);
    std::cerr << "wrote " << bench.out << "\n";
  }
  for (const std::string& f : failures) std::cerr << "FAIL: " << f << "\n";
  return failures.empty() ? 0 : 1;
}

int cmd_trace_check(const std::vector<std::string>& args) {
  if (args.size() != 1) throw InputError("trace-check: expected one trace file");
  std::string diag;
  std::vector<std::string> cats;
  std::vector<std::int64_t> tids;
  if (!validate_chrome_trace(read_file_text(args[0]), &diag, &cats, &tids)) {
    std::cerr << "trace-check: INVALID: " << diag << "\n";
    return 1;
  }
  std::cout << "trace-check: ok — " << tids.size() << " tracks, "
            << cats.size() << " span categories (";
  for (std::size_t i = 0; i < cats.size(); ++i) {
    std::cout << (i > 0 ? ", " : "") << cats[i];
  }
  std::cout << ")\n";
  return 0;
}

int cmd_serve(const std::vector<std::string>& args) {
  ServeOptions options;
  std::string jobs_file;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= args.size()) throw InputError("missing value after " + a);
      return args[++i];
    };
    if (a == "--jobs") {
      jobs_file = next();
    } else if (a == "--max-concurrent") {
      options.max_concurrent = parse_thread_count(a, next());
    } else {
      throw InputError("unknown serve flag: " + a);
    }
  }
  if (jobs_file.empty()) return serve_loop(std::cin, std::cout, options);
  std::ifstream is(jobs_file);
  if (!is) throw InputError("cannot read " + jobs_file);
  return serve_loop(is, std::cout, options);
}

int cmd_fuzz(const std::vector<std::string>& args) {
  FuzzOptions options;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= args.size()) throw InputError("missing value after " + a);
      return args[++i];
    };
    if (a == "--seed") {
      options.seed = parse_flag_value<std::uint64_t>(a, next());
    } else if (a == "--iters") {
      options.iterations = parse_flag_value<int>(a, next());
    } else if (a == "--threads") {
      options.threads = parse_thread_count(a, next());
    } else if (a == "--max-gates") {
      options.max_gates = parse_flag_value<int>(a, next());
    } else if (a == "--max-inputs") {
      options.max_inputs = parse_flag_value<int>(a, next());
    } else if (a == "--no-sat") {
      options.sat_crosscheck = false;
    } else if (a == "--no-shrink") {
      options.shrink = false;
    } else if (a == "--out-dir") {
      options.repro_dir = next();
    } else {
      throw InputError("unknown fuzz flag: " + a);
    }
  }
  const FuzzResult result = run_fuzz(options, std::cout);
  return result.ok() ? 0 : 1;
}

int usage() {
  std::cerr << "usage: rapids [--log-level L] "
               "<flow|serve|symmetry|table1|fuzz|bench|bench-diff|trace-check|list> [args]\n"
               "  rapids flow c432 --mode gsg+gs --threads 4 --out c432_opt.blif\n"
               "  rapids flow c499 --sat-verify --paranoid\n"
               "  rapids flow c499 --trace t.json --metrics-json m.json\n"
               "  rapids serve --jobs jobs.txt --max-concurrent 2\n"
               "  rapids bench engine --out /tmp/BENCH_engine.json\n"
               "  rapids bench-diff old.json new.json --fail-below "
               "rate.probes_per_sec=40\n"
               "  rapids trace-check t.json\n"
               "  rapids symmetry k2\n"
               "  rapids table1 --quick\n"
               "  rapids fuzz --seed 7 --iters 25 --threads 3\n"
               "  rapids list\n"
               "  --log-level debug|info|warn|error|off (anywhere; default warn)\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> all(argv + 1, argv + argc);
  try {
    // --log-level is global (any position, any subcommand): strip it here
    // and set the process logger before dispatch.
    for (std::size_t i = 0; i < all.size();) {
      if (all[i] == "--log-level") {
        if (i + 1 >= all.size()) throw InputError("missing value after --log-level");
        Logger::instance().set_level(parse_log_level(all[i + 1]));
        all.erase(all.begin() + static_cast<std::ptrdiff_t>(i),
                  all.begin() + static_cast<std::ptrdiff_t>(i) + 2);
      } else {
        ++i;
      }
    }
    if (all.empty()) return usage();
    const std::string cmd = all[0];
    std::vector<std::string> args(all.begin() + 1, all.end());
    if (cmd == "list") return cmd_list();
    if (cmd == "symmetry") {
      if (args.empty()) return usage();
      return cmd_symmetry(args[0]);
    }
    if (cmd == "flow") return cmd_flow(args);
    if (cmd == "serve") return cmd_serve(args);
    if (cmd == "table1") return cmd_table1(args);
    if (cmd == "fuzz") return cmd_fuzz(args);
    if (cmd == "bench") return cmd_bench(args);
    if (cmd == "bench-diff") return cmd_bench_diff(args);
    if (cmd == "trace-check") return cmd_trace_check(args);
    return usage();
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
