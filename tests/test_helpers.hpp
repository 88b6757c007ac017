// Shared helpers for the RAPIDS test suite.
#pragma once

#include <string>
#include <vector>

#include "flow/flow.hpp"
#include "gen/random_circuit.hpp"
#include "library/cell_library.hpp"
#include "mapping/mapper.hpp"
#include "netlist/builder.hpp"
#include "netlist/network.hpp"
#include "session/session.hpp"
#include "util/rng.hpp"

namespace rapids::testing {

/// Random fanout-free tree over fresh primary inputs.
/// Gates are drawn from AND/NAND/OR/NOR/XOR/XNOR/INV/BUF; every internal
/// node has a single fanout by construction. Returns the root gate.
inline GateId random_tree(NetworkBuilder& b, Rng& rng, int depth, int max_fanin,
                          std::string prefix = "t") {
  if (depth == 0) {
    return b.input(prefix);
  }
  const double roll = rng.next_double();
  if (roll < 0.15) {
    const GateId child = random_tree(b, rng, depth - 1, max_fanin, prefix + "i");
    return rng.next_bool() ? b.inv(child) : b.buf(child);
  }
  static constexpr GateType kTypes[6] = {GateType::And, GateType::Nand, GateType::Or,
                                         GateType::Nor, GateType::Xor, GateType::Xnor};
  const GateType type = kTypes[rng.next_below(6)];
  const int fanins = rng.next_int(2, max_fanin);
  std::vector<GateId> kids;
  for (int i = 0; i < fanins; ++i) {
    kids.push_back(random_tree(b, rng, depth - 1, max_fanin,
                               prefix + std::to_string(i)));
  }
  return b.gate(type, kids);
}

/// Random multi-output DAG with reconvergence (mapped-network shaped after
/// map_network). `seed` controls everything. Thin wrapper over the library
/// generator (src/gen/random_circuit) that the fuzz harness also uses; the
/// default profile reproduces the exact networks this helper always made.
inline Network random_mapped_network(std::uint64_t seed, int num_inputs = 12,
                                     int num_gates = 60, int num_outputs = 6) {
  RandomCircuitOptions opt;
  opt.num_inputs = num_inputs;
  opt.num_gates = num_gates;
  opt.num_outputs = num_outputs;
  return random_network(seed, opt);
}

/// Materialized list of live gate ids (tests that need random indexing).
inline std::vector<GateId> live_gates(const Network& net) {
  std::vector<GateId> out;
  out.reserve(net.num_gates());
  for (const GateId g : net.gates()) out.push_back(g);
  return out;
}

/// Shared built-in library instance for tests.
inline const CellLibrary& lib035() {
  static const CellLibrary lib = builtin_library_035();
  return lib;
}

/// `base` bound to a caller-owned session: the flow's trace spans,
/// provenance records, metrics and worker pool all belong to `session`.
inline FlowOptions session_flow_options(SessionContext& session,
                                        FlowOptions base = {}) {
  base.opt.session = &session;
  return base;
}

/// Map a source network with default options.
inline Network mapped(const Network& src) {
  return map_network(src, lib035()).mapped;
}

}  // namespace rapids::testing
