// End-to-end RAPIDS flow (paper §6 experimental setup):
//   generate/load -> decompose+map (0.35um library) -> place -> STA
//   -> optimize (gsg / GS / gsg+GS) -> verify -> report.
//
// produce_table1_row() reruns the three optimizers from the same mapped,
// placed starting point, exactly as Table 1 compares them.
//
// A FlowJob is one whole run with its artifacts: `rapids flow` parses its
// arguments into one (parse_flow_args), a `rapids serve` job line maps
// onto the same arguments, and both run it through run_flow_job.
#pragma once

#include <charconv>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <type_traits>
#include <vector>

#include "library/cell_library.hpp"
#include "netlist/network.hpp"
#include "opt/fanout_opt.hpp"
#include "opt/metrics.hpp"
#include "opt/optimizer.hpp"
#include "place/placer.hpp"
#include "timing/sta.hpp"
#include "util/assert.hpp"

namespace rapids {

struct FlowOptions {
  PlacerOptions placer;
  /// opt.session is the session the whole flow runs under: trace spans,
  /// provenance, metrics and the worker pool all belong to it. Null = a
  /// call-local session per entry point (prepare_circuit, run_mode), whose
  /// observations are discarded. run_mode collects the flow metrics into
  /// session.metrics(), which makes it re-entrant: concurrent flows on
  /// separate sessions share no mutable observability state.
  OptimizerOptions opt;
  /// Equivalence-check each optimized netlist against the mapped input.
  bool verify = true;
  /// Escalate verification to a SAT proof when the interface is too wide
  /// for exhaustive enumeration (random vectors alone only falsify).
  bool verify_sat = false;
  /// Placer effort shrink for very large circuits (moves scale down when
  /// cells > threshold; keeps the 19-circuit table under a few minutes).
  std::size_t reduce_effort_above = 4000;

  bool operator==(const FlowOptions&) const = default;
};

/// A mapped + placed circuit ready for optimization experiments.
struct PreparedCircuit {
  std::string name;
  Network mapped;
  Placement placement;
  double initial_delay = 0.0;
  double initial_area = 0.0;
};

/// Read a circuit spec: a .blif or .bench file, gen:<gates>[:seed] (the
/// synthetic large-circuit profile) or a built-in suite name.
Network load_circuit(const std::string& spec);

/// The value of `flag` (a flag or serve key name) read from the whole of
/// `text`: "1x", "" and, for an unsigned T, any sign throw an InputError
/// naming `flag`.
template <typename T>
T parse_flag_value(const std::string& flag, const std::string& text) {
  T value{};
  const char* const end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc() || ptr != end) {
    const char* kind = std::is_floating_point_v<T> ? "a number"
                       : std::is_unsigned_v<T>     ? "an unsigned integer"
                                                   : "an integer";
    throw InputError("bad value for " + flag + ": '" + text + "' (expected " + kind + ")");
  }
  return value;
}

/// A worker or slot count for `flag` (--threads, threads=, --max-concurrent):
/// a whole integer from 1 to max(8, 4 x hardware threads). Anything else
/// throws an InputError naming `flag`, before any pool is sized from it.
int parse_thread_count(const std::string& flag, const std::string& text);

/// If args[i] is a `rapids flow` flag that sets OptimizerOptions (--threads,
/// --iters, --paranoid and the A/B levers), applies it, steps i past its
/// value and returns true; otherwise returns false.
bool parse_optimizer_flag(const std::vector<std::string>& args, std::size_t& i,
                          OptimizerOptions& opt);

/// Applies optimizer flags ("--threads 4 --no-delta-sync"); any other
/// token throws InputError.
void apply_optimizer_flags(const std::string& flags, OptimizerOptions& opt);

/// One `rapids flow` run or served job: the circuit, the optimizer mode,
/// the flow options and where its artifacts go (empty = not written).
struct FlowJob {
  std::string target;  // a load_circuit spec
  OptMode mode = OptMode::GsgPlusGS;
  FlowOptions options;
  bool buffers = false;  // fanout buffer insertion after optimization
  std::string out_blif;
  std::string out_metrics;
  std::string out_provenance;
  std::string out_trace;
  std::string out_place;  // the placed pre-optimization netlist

  bool operator==(const FlowJob&) const = default;
};

/// Parse `rapids flow` arguments (one circuit plus flags; see
/// tools/rapids_cli.cpp). Unknown flags, malformed values and a missing or
/// second circuit throw InputError.
FlowJob parse_flow_args(const std::vector<std::string>& args);

struct FlowJobResult {
  std::size_t cells = 0;       // mapped cells placed
  double initial_delay = 0.0;  // critical delay of the placed circuit
  OptimizerResult result;
  bool verified = true;        // equivalence check passed (true when skipped)
  FanoutOptResult fanout;      // job.buffers only
  int provenance_chains = 0;   // committed chains resolved (out_provenance only)
};

/// Run `job` on `session`: read -> prepare_circuit -> run_mode -> buffers,
/// then write the trace, BLIF, metrics, provenance and placement it asks
/// for. The session tags this thread's log lines for the call, and its
/// registry holds the flow's metrics afterwards. A committed provenance
/// chain that fails its self-check throws InternalError; a failed
/// equivalence check does not throw (result.verified is false).
FlowJobResult run_flow_job(const FlowJob& job, const CellLibrary& lib,
                           SessionContext& session);

/// Generate (by suite name) or adopt a network, then map and place it.
PreparedCircuit prepare_circuit(const std::string& name, const Network& src,
                                const CellLibrary& lib, const FlowOptions& options = {});
PreparedCircuit prepare_benchmark(const std::string& suite_name, const CellLibrary& lib,
                                  const FlowOptions& options = {});

/// Timing-driven placement refinement (mimics the paper's commercial
/// timing-driven placer): place, run STA, up-weight nets by criticality,
/// re-place with those weights; keep the best of `rounds` iterations.
/// Returns the placement and its critical delay.
std::pair<Placement, double> place_timing_driven(const Network& mapped,
                                                 const CellLibrary& lib,
                                                 const PlacerOptions& base_options,
                                                 int rounds = 2);

struct ModeRun {
  OptimizerResult result;
  bool verified = true;
  Network optimized;  // final netlist of this mode
};

/// Run one optimizer mode on a fresh copy of the prepared circuit.
ModeRun run_mode(const PreparedCircuit& prepared, const CellLibrary& lib, OptMode mode,
                 const FlowOptions& options = {});

/// Single-mode flows that are done with the prepared circuit: move-adopt
/// the mapped network and placement and optimize them in place — no
/// whole-network clone. The pre-opt netlist is cloned only when
/// options.verify still needs a reference to check against.
ModeRun run_mode(PreparedCircuit&& prepared, const CellLibrary& lib, OptMode mode,
                 const FlowOptions& options = {});

/// Full Table 1 row: run gsg, GS and gsg+GS from the same starting point.
BenchmarkRow produce_table1_row(const PreparedCircuit& prepared, const CellLibrary& lib,
                                const FlowOptions& options = {});

}  // namespace rapids
