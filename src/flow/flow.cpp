#include "flow/flow.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <iterator>
#include <optional>
#include <sstream>
#include <thread>
#include <utility>

#include "gen/large.hpp"
#include "gen/suite.hpp"
#include "io/bench_reader.hpp"
#include "io/blif_reader.hpp"
#include "io/blif_writer.hpp"
#include "io/placement_io.hpp"
#include "mapping/mapper.hpp"
#include "session/session.hpp"
#include "trace/metrics.hpp"
#include "trace/provenance.hpp"
#include "trace/trace.hpp"
#include "util/assert.hpp"
#include "util/log.hpp"
#include "util/timer.hpp"
#include "verify/equivalence.hpp"

namespace rapids {

PreparedCircuit prepare_circuit(const std::string& name, const Network& src,
                                const CellLibrary& lib, const FlowOptions& options) {
  // Public entry point: a session-less call runs on a call-local session.
  std::optional<SessionContext> local;
  SessionContext& session = options.opt.session != nullptr
                                ? *options.opt.session
                                : local.emplace("default");
  Tracer& tracer = session.tracer();
  PreparedCircuit prepared;
  prepared.name = name;
  // Stage wall times go to the session's metrics whether or not the
  // tracer records the matching spans.
  MetricsRegistry& metrics = session.metrics();
  Network mapped_net;
  {
    TraceSpan map_span(tracer, "flow", "map");
    const Timer timer;
    MapResult mapped = map_network(src, lib);
    mapped_net = std::move(mapped.mapped);
    metrics.set_gauge("time.map_s", timer.seconds());
  }
  prepared.mapped = std::move(mapped_net);

  PlacerOptions popt = options.placer;
  const std::size_t cells = prepared.mapped.num_logic_gates();
  if (cells > options.reduce_effort_above && options.reduce_effort_above > 0) {
    popt.effort = popt.effort * static_cast<double>(options.reduce_effort_above) /
                  static_cast<double>(cells);
  }
  {
    TraceSpan place_span(tracer, "flow", "place");
    const Timer timer;
    prepared.placement = place(prepared.mapped, lib, popt);
    metrics.set_gauge("time.place_s", timer.seconds());
  }

  TraceSpan sta_span(tracer, "flow", "initial_sta");
  const Timer sta_timer;
  Sta sta(prepared.mapped, lib, prepared.placement);
  prepared.initial_delay = sta.critical_delay();
  metrics.set_gauge("time.initial_sta_s", sta_timer.seconds());
  prepared.initial_area = 0.0;
  prepared.mapped.for_each_gate([&](GateId g) {
    const std::int32_t c = prepared.mapped.cell(g);
    if (c >= 0 && is_logic(prepared.mapped.type(g))) {
      prepared.initial_area += lib.cell(c).area;
    }
  });
  log_info() << name << ": " << cells << " cells, init delay " << prepared.initial_delay
             << " ns";
  return prepared;
}

Network load_circuit(const std::string& spec) {
  auto ends_with = [&spec](const char* suffix) {
    const std::size_t n = std::strlen(suffix);
    return spec.size() >= n && spec.compare(spec.size() - n, n, suffix) == 0;
  };
  if (ends_with(".blif")) return read_blif_file(spec);
  if (ends_with(".bench")) return read_bench_file(spec);
  if (spec.rfind("gen:", 0) == 0) {
    // gen:<gates>[:seed] — synthetic large-circuit profile.
    LargeCircuitOptions lopt;
    const std::string body = spec.substr(4);
    const std::size_t colon = body.find(':');
    lopt.target_gates = static_cast<std::size_t>(
        parse_flag_value<std::uint64_t>(spec, body.substr(0, colon)));
    if (colon != std::string::npos) {
      lopt.seed = parse_flag_value<std::uint64_t>(spec, body.substr(colon + 1));
    }
    return make_large_circuit(lopt);
  }
  return make_benchmark(spec);
}

int parse_thread_count(const std::string& flag, const std::string& text) {
  const int n = parse_flag_value<int>(flag, text);
  const int cap = static_cast<int>(std::max(8u, 4 * std::thread::hardware_concurrency()));
  if (n < 1 || n > cap) {
    throw InputError(flag + " must be between 1 and " + std::to_string(cap) + ", got " + text);
  }
  return n;
}

bool parse_optimizer_flag(const std::vector<std::string>& args, std::size_t& i,
                          OptimizerOptions& opt) {
  const std::string& a = args[i];
  const auto next = [&]() -> const std::string& {
    if (i + 1 >= args.size()) throw InputError("missing value after " + a);
    return args[++i];
  };
  if (a == "--threads") {
    opt.threads = parse_thread_count(a, next());
  } else if (a == "--iters") {
    opt.max_iterations = parse_flag_value<int>(a, next());
    if (opt.max_iterations < 0) throw InputError("--iters must be >= 0");
  } else if (a == "--paranoid") {
    opt.paranoid = true;
  } else if (a == "--no-sat-session") {
    opt.sat_session = false;
  } else if (a == "--no-incremental") {
    opt.incremental_extraction = false;
  } else if (a == "--extract-diff") {
    opt.extract_diff = true;
  } else if (a == "--no-delta-sync") {
    opt.delta_replica_sync = false;
  } else if (a == "--no-prune-cache") {
    opt.prune_cache = false;
  } else if (a == "--no-timing-damp") {
    opt.timing_damp = false;
  } else if (a == "--timing-damp-diff") {
    opt.timing_damp_diff = true;
  } else {
    return false;
  }
  return true;
}

void apply_optimizer_flags(const std::string& flags, OptimizerOptions& opt) {
  std::istringstream in(flags);
  const std::vector<std::string> args{std::istream_iterator<std::string>(in), {}};
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (!parse_optimizer_flag(args, i, opt)) {
      throw InputError("not an optimizer flag: " + args[i]);
    }
  }
}

FlowJob parse_flow_args(const std::vector<std::string>& args) {
  FlowJob job;
  FlowOptions& options = job.options;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (parse_optimizer_flag(args, i, options.opt)) continue;
    const std::string& a = args[i];
    auto next = [&]() -> const std::string& {
      if (i + 1 >= args.size()) throw InputError("missing value after " + a);
      return args[++i];
    };
    if (a == "--mode") {
      job.mode = parse_opt_mode(next());
    } else if (a == "--seed") {
      options.placer.seed = parse_flag_value<std::uint64_t>(a, next());
    } else if (a == "--effort") {
      options.placer.effort = parse_flag_value<double>(a, next());
    } else if (a == "--buffers") {
      job.buffers = true;
    } else if (a == "--out") {
      job.out_blif = next();
    } else if (a == "--place-out") {
      job.out_place = next();
    } else if (a == "--no-verify") {
      options.verify = false;
    } else if (a == "--sat-verify") {
      options.verify_sat = true;
    } else if (a == "--trace") {
      job.out_trace = next();
    } else if (a == "--metrics-json") {
      job.out_metrics = next();
    } else if (a == "--provenance") {
      job.out_provenance = next();
    } else if (!a.empty() && a[0] == '-') {
      throw InputError("unknown flag: " + a);
    } else if (!job.target.empty()) {
      throw InputError("flow: more than one circuit given: " + job.target + ", " + a);
    } else {
      job.target = a;
    }
  }
  if (job.target.empty()) throw InputError("flow: no circuit given");
  return job;
}

PreparedCircuit prepare_benchmark(const std::string& suite_name, const CellLibrary& lib,
                                  const FlowOptions& options) {
  const Network src = make_benchmark(suite_name);
  return prepare_circuit(suite_name, src, lib, options);
}

std::pair<Placement, double> place_timing_driven(const Network& mapped,
                                                 const CellLibrary& lib,
                                                 const PlacerOptions& base_options,
                                                 int rounds) {
  PlacerOptions popt = base_options;
  Placement best = place(mapped, lib, popt);
  double best_delay;
  {
    Sta sta(mapped, lib, best);
    best_delay = sta.critical_delay();
  }
  for (int round = 1; round < rounds; ++round) {
    // Weight each net by how close its driver sits to the critical path:
    // weight = 1 + k * criticality^2, the classic net-weighting recipe.
    Sta sta(mapped, lib, best);
    sta.refresh_required();
    const double period = std::max(sta.critical_delay(), 1e-9);
    popt.net_weights.assign(mapped.id_bound(), 1.0);
    mapped.for_each_gate([&](GateId g) {
      if (mapped.type(g) == GateType::Output || mapped.fanout_count(g) == 0) return;
      const double crit =
          std::clamp(1.0 - sta.slack(g) / period, 0.0, 1.0);
      popt.net_weights[g] = 1.0 + 4.0 * crit * crit;
    });
    popt.seed = base_options.seed + static_cast<std::uint64_t>(round);
    Placement candidate = place(mapped, lib, popt);
    Sta probe(mapped, lib, candidate);
    if (probe.critical_delay() < best_delay) {
      best_delay = probe.critical_delay();
      best = std::move(candidate);
    }
  }
  return {std::move(best), best_delay};
}

namespace {

/// Shared single-mode body. `run.optimized` and `placement` already hold
/// the circuit to optimize in place; `reference` is the pre-opt netlist for
/// equivalence checking (null when options.verify is off), and
/// `clone_seconds` the time spent cloning it, which counts as verify time.
void run_mode_impl(ModeRun& run, Placement& placement, const Network* reference,
                   double clone_seconds, const std::string& name,
                   const CellLibrary& lib, OptMode mode, const FlowOptions& options) {
  Sta sta(run.optimized, lib, placement);
  OptimizerOptions oopt = options.opt;
  oopt.mode = mode;
  // Both run_mode overloads resolve a session-less call here, once, into a
  // call-local session: one flow = one session, end to end.
  std::optional<SessionContext> local;
  if (oopt.session == nullptr) oopt.session = &local.emplace("default");
  SessionContext& session = *oopt.session;
  // The Sta constructor above just ran a full analysis against this exact
  // network state; the optimizer can skip its own initial O(network) pass.
  oopt.sta_is_fresh = true;
  // One seed reproduces the whole run: unless the caller chose an explicit
  // optimizer seed, the per-worker RNG substreams derive from the same
  // seed that placed the circuit.
  if (oopt.seed == OptimizerOptions{}.seed) oopt.seed = options.placer.seed;
  {
    TraceSpan opt_span(session.tracer(), "flow", "optimize");
    run.result = optimize(run.optimized, placement, lib, sta, oopt);
    opt_span.set_arg("committed", run.result.swaps_committed + run.result.resizes_committed);
  }
  // Every session collects its flow metrics; the CLI and the serve driver
  // dump session.metrics() after labelling it.
  collect_flow_metrics(session.metrics(), run.result);
  if (oopt.paranoid) {
    log_info() << name << " " << to_string(mode) << ": paranoid proved "
               << run.result.moves_proved << " commits ("
               << (oopt.sat_session ? "session" : "per-move solver") << " mode, "
               << run.result.metrics.counter("proof.gates_encoded") << " gates encoded, "
               << run.result.metrics.counter("proof.conflicts") << " conflicts"
               << (run.result.paranoid_inconclusive > 0
                       ? ", " + std::to_string(run.result.paranoid_inconclusive) +
                             " inconclusive rejects"
                       : std::string())
               << ")";
  }
  if (options.verify) {
    TraceSpan verify_span(session.tracer(), "flow", "verify");
    const Timer verify_timer;
    RAPIDS_ASSERT(reference != nullptr);
    EquivalenceOptions eopt;
    eopt.sat_proof = options.verify_sat;
    const EquivalenceResult eq = check_equivalence(*reference, run.optimized, eopt);
    run.verified = eq.equivalent;
    if (!eq.equivalent) {
      log_error() << name << " " << to_string(mode)
                  << ": optimization broke equivalence at output " << eq.failing_output;
    } else if (options.verify_sat && !eq.proved) {
      log_warn() << name << " " << to_string(mode)
                 << ": SAT proof inconclusive (budget); verdict rests on "
                 << eq.patterns << " random patterns";
    }
    session.metrics().set_gauge("time.verify_s", clone_seconds + verify_timer.seconds());
  }
}

}  // namespace

ModeRun run_mode(const PreparedCircuit& prepared, const CellLibrary& lib, OptMode mode,
                 const FlowOptions& options) {
  ModeRun run;
  run.optimized = prepared.mapped.clone();
  Placement placement = prepared.placement;  // value copy; original intact
  run_mode_impl(run, placement, &prepared.mapped, 0.0, prepared.name, lib, mode,
                options);
  return run;
}

ModeRun run_mode(PreparedCircuit&& prepared, const CellLibrary& lib, OptMode mode,
                 const FlowOptions& options) {
  ModeRun run;
  // The caller surrendered the prepared circuit: optimize the mapped
  // network in place. Equivalence checking still needs the pre-opt
  // netlist, so the clone survives exactly when verification asks for it.
  Network reference;
  const Timer clone_timer;
  if (options.verify) reference = prepared.mapped.clone();
  const double clone_seconds = clone_timer.seconds();
  run.optimized = std::move(prepared.mapped);
  Placement placement = std::move(prepared.placement);
  run_mode_impl(run, placement, options.verify ? &reference : nullptr, clone_seconds,
                prepared.name, lib, mode, options);
  return run;
}

FlowJobResult run_flow_job(const FlowJob& job, const CellLibrary& lib,
                           SessionContext& session) {
  const SessionScope scope(session);
  FlowOptions options = job.options;
  options.opt.session = &session;
  // Observation-only instrumentation: enabled before any flow stage runs so
  // map/place land on the trace too. Neither recorder feeds anything back
  // into the optimization — the netlist is byte-identical with them off.
  if (!job.out_trace.empty()) session.tracer().enable(std::max(options.opt.threads, 1));
  if (!job.out_provenance.empty()) session.provenance().enable();

  MetricsRegistry& metrics = session.metrics();
  PreparedCircuit prepared = [&] {
    const Timer timer;
    const Network src = load_circuit(job.target);
    metrics.set_gauge("time.read_s", timer.seconds());
    return prepare_circuit(job.target, src, lib, options);
  }();
  FlowJobResult out;
  out.cells = prepared.mapped.num_logic_gates();
  out.initial_delay = prepared.initial_delay;

  // Only the buffer pass and the placement dump still need the prepared
  // circuit after optimization; otherwise move-adopt it (no whole-network
  // clone).
  const bool keep_prepared = job.buffers || !job.out_place.empty();
  ModeRun run = keep_prepared ? run_mode(prepared, lib, job.mode, options)
                              : run_mode(std::move(prepared), lib, job.mode, options);
  const auto open_out = [](const std::string& path) {
    std::ofstream os(path);
    if (!os) throw InputError("cannot write " + path);
    return os;
  };
  if (!job.out_trace.empty()) {
    session.tracer().disable();  // workers are quiescent; freeze before exporting
    std::ofstream os = open_out(job.out_trace);
    session.tracer().write_chrome_trace(os);
  }
  if (job.buffers) {
    Placement pl = prepared.placement;
    Sta sta(run.optimized, lib, pl);
    out.fanout = optimize_fanout(run.optimized, pl, lib, sta);
  }
  // The BLIF goes out before the metrics file, so its write time is in it.
  if (!job.out_blif.empty()) {
    const Timer timer;
    write_blif_file(run.optimized, job.out_blif, job.target);
    metrics.set_gauge("time.write_s", timer.seconds());
  }
  metrics.set_label("circuit", job.target);
  metrics.set_label("mode", to_string(job.mode));
  metrics.set_label("threads", std::to_string(run.result.threads));
  if (!job.out_metrics.empty()) {
    std::ofstream os = open_out(job.out_metrics);
    metrics.write_json(os);
  }
  if (!job.out_provenance.empty()) {
    ProvenanceLog& prov = session.provenance();
    prov.disable();
    std::string diag;
    out.provenance_chains = prov.resolve_committed_chains(&diag);
    if (out.provenance_chains < 0) {
      throw InternalError(session.id() + ": provenance self-check failed: " + diag);
    }
    std::ofstream os = open_out(job.out_provenance);
    prov.write_json(os);
  }
  if (!job.out_place.empty()) {
    write_placement_file(prepared.mapped, prepared.placement, job.out_place);
  }
  out.result = std::move(run.result);
  out.verified = run.verified;
  return out;
}

BenchmarkRow produce_table1_row(const PreparedCircuit& prepared, const CellLibrary& lib,
                                const FlowOptions& options) {
  BenchmarkRow row;
  row.name = prepared.name;
  row.num_gates = prepared.mapped.num_logic_gates();
  row.init_delay_ns = prepared.initial_delay;
  for (const OptMode mode : {OptMode::Gsg, OptMode::GateSizing, OptMode::GsgPlusGS}) {
    const ModeRun run = run_mode(prepared, lib, mode, options);
    RAPIDS_ASSERT_MSG(run.verified, "optimized netlist failed equivalence check");
    record_mode(row, mode, run.result);
  }
  return row;
}

}  // namespace rapids
