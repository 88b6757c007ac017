// End-to-end RAPIDS flow (paper §6 experimental setup):
//   generate/load -> decompose+map (0.35um library) -> place -> STA
//   -> optimize (gsg / GS / gsg+GS) -> verify -> report.
//
// produce_table1_row() reruns the three optimizers from the same mapped,
// placed starting point, exactly as Table 1 compares them.
#pragma once

#include <functional>
#include <string>

#include "library/cell_library.hpp"
#include "netlist/network.hpp"
#include "opt/metrics.hpp"
#include "opt/optimizer.hpp"
#include "place/placer.hpp"
#include "timing/sta.hpp"

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
