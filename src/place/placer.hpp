// Row-based standard-cell placer.
//
// Stand-in for the commercial timing-driven placer the paper used: the
// rewiring engine only needs every cell to have a fixed, realistic location
// with wirelength structure that a placer would produce. Three stages:
//   1. levelized seed placement (x ~ logic level, y spread within level);
//   2. simulated-annealing refinement of (criticality-weighted) HPWL,
//      scored from flat per-net pin tables and a per-net HPWL cache;
//   3. row legalization (snap to rows, remove overlaps, keep order).
// Deterministic for a given seed.
#pragma once

#include <cstdint>
#include <vector>

#include "library/cell_library.hpp"
#include "netlist/network.hpp"
#include "place/placement.hpp"

namespace rapids {

struct PlacerOptions {
  DieSpec die;
  std::uint64_t seed = 1;
  /// Annealing effort: moves per temperature = effort * #cells.
  double effort = 8.0;
  double initial_temp_factor = 0.05;  // fraction of die half-perimeter
  double cooling = 0.82;
  int num_temps = 24;
  /// Optional per-net weights (indexed by driver GateId); empty = uniform.
  std::vector<double> net_weights;
};

/// Place all live gates of `net`. Logic gates (and Consts) go into rows;
/// Input/Output markers become pads on the die boundary (left for inputs,
/// right for outputs). Throws InputError unless `options.effort` is finite
/// and > 0 and effort * #cells fits an int.
Placement place(const Network& net, const CellLibrary& lib, const PlacerOptions& options = {});

/// Verify row legality: every logic cell y-centered on a row, inside the
/// core, and no two cells in a row overlap. Returns violation strings.
std::vector<std::string> check_legal(const Network& net, const CellLibrary& lib,
                                     const Placement& pl);

}  // namespace rapids
