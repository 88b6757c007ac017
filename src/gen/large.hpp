// Industrial-scale synthetic circuit profile (10k-500k gates).
//
// Composes the existing block generators — ripple adders, comparators,
// parity/XOR syndrome trees and PLA-style control cubes — into one flat
// network sized to a gate target. The blocks cross-couple through a
// rotating signal pool so the result is one connected reconvergent DAG
// rather than disjoint islands, and the primary-output count is capped
// (leftover block outputs XOR-reduce into parity POs) so per-probe
// sum-of-PO-arrival bookkeeping stays cheap at 500k gates.
//
// Deterministic: one (target_gates, seed) pair reproduces one circuit
// byte-for-byte. Used by `rapids flow gen:<gates>[:seed]` and
// `rapids bench scale`.
#pragma once

#include <cstdint>

#include "netlist/network.hpp"

namespace rapids {

struct LargeCircuitOptions {
  /// Approximate technology-independent gate target; the generator stops
  /// adding blocks once the network crosses it (actual count lands within
  /// one block, a few hundred gates).
  std::size_t target_gates = 100000;
  std::uint64_t seed = 1;
  /// Primary-output cap: block outputs beyond this fold into XOR parity
  /// POs instead of becoming individual POs.
  int max_outputs = 128;
  /// Primary inputs feeding the shared signal pool.
  int num_inputs = 256;
};

Network make_large_circuit(const LargeCircuitOptions& options = {});

}  // namespace rapids
