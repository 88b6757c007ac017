// Fig. 3 reproduction: cross-supergate group swapping via DeMorgan
// transformation (Theorem 2).
//
// Rebuilds the figure (SG1 = AND(a,b,c), SG2 = OR(d,e,g) with symmetric
// outputs), applies the group swap, prints what changed (retyped gates,
// inverters) and verifies equivalence. Then sweeps random netlists counting
// cross-supergate opportunities and validating every applied exchange.
// Exits non-zero when the figure yields no candidate or any exchange breaks
// equivalence.
#include <cstdio>
#include <iostream>

#include "library/cell_library.hpp"
#include "netlist/builder.hpp"
#include "place/placement.hpp"
#include "rewire/cross_sg.hpp"
#include "sym/gisg.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"
#include "verify/equivalence.hpp"

using namespace rapids;

namespace {

Placement flat_placement(const Network& net) {
  Placement pl(net.id_bound());
  net.for_each_gate([&](GateId g) { pl.set(g, Point{0, 0}); });
  return pl;
}

/// True when the figure yields a candidate and its exchange keeps the
/// function.
bool figure_case() {
  std::cout << "== Fig. 3 case study ==\n";
  NetworkBuilder b;
  const GateId a = b.input("a"), bb = b.input("b"), c = b.input("c");
  const GateId d = b.input("d"), e = b.input("e"), g = b.input("g");
  const GateId sg1 = b.and_({a, bb, c}, "SG1");
  const GateId sg2 = b.or_({d, e, g}, "SG2");
  b.output("f", b.xor_({sg1, sg2}));
  Network net = b.take();
  const Network golden = net.clone();
  Placement pl = flat_placement(net);
  const CellLibrary lib = builtin_library_035();

  const GisgPartition part = extract_gisg(net);
  const auto cands = find_cross_sg_candidates(part, net);
  std::cout << "candidates found: " << cands.size() << "\n";
  if (cands.empty()) return false;
  const CrossSgEdit edit = apply_cross_sg_swap(net, pl, lib, part, cands[0]);
  std::cout << "applied: retyped " << edit.gates_retyped << " gates, added "
            << edit.inverters_added << " inverters\n";
  std::cout << "SG1 gate is now " << to_string(net.type(net.find("SG1")))
            << ", SG2 gate is now " << to_string(net.type(net.find("SG2"))) << "\n";
  std::cout << "fanins of SG1 after swap:";
  for (const GateId f : net.fanins(net.find("SG1"))) std::cout << ' ' << net.name(f);
  const bool equivalent = check_equivalence(golden, net).equivalent;
  std::cout << "\nequivalence: " << (equivalent ? "OK" : "BROKEN") << "\n";
  return equivalent;
}

/// True when every applied exchange keeps the function.
bool random_sweep() {
  bool ok = true;
  std::cout << "\n== random-netlist sweep ==\n";
  std::cout << "seed  gates  candidates  applied  retyped  invs  all_equiv\n";
  const CellLibrary lib = builtin_library_035();
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    // Build a netlist rich in AND/OR groups under XOR combiners.
    NetworkBuilder b;
    Rng rng(seed);
    std::vector<GateId> pool;
    for (int i = 0; i < 24; ++i) pool.push_back(b.input("x" + std::to_string(i)));
    std::vector<GateId> groups;
    for (int i = 0; i < 12; ++i) {
      std::vector<GateId> ins;
      const int n = rng.next_int(2, 4);
      for (int k = 0; k < n; ++k) ins.push_back(pool[rng.next_below(pool.size())]);
      groups.push_back(rng.next_bool() ? b.and_(ins) : b.or_(ins));
    }
    for (int o = 0; o < 4; ++o) {
      const GateId u = groups[rng.next_below(groups.size())];
      const GateId v = groups[rng.next_below(groups.size())];
      if (u == v) continue;
      b.output("y" + std::to_string(o), b.xor_({u, v}));
    }
    Network net = b.take();
    net.sweep_dangling();
    const Network golden = net.clone();
    Placement pl = flat_placement(net);

    int applied = 0, retyped = 0, invs = 0;
    bool all_equiv = true;
    // Apply one candidate per fresh extraction (each swap invalidates the
    // partition), a few rounds deep.
    std::size_t total_candidates = 0;
    for (int round = 0; round < 3; ++round) {
      const GisgPartition part = extract_gisg(net);
      const auto cands = find_cross_sg_candidates(part, net);
      if (round == 0) total_candidates = cands.size();
      if (cands.empty()) break;
      const CrossSgEdit edit = apply_cross_sg_swap(net, pl, lib, part, cands[0]);
      ++applied;
      retyped += edit.gates_retyped;
      invs += edit.inverters_added;
      all_equiv = all_equiv && check_equivalence(golden, net).equivalent;
    }
    std::printf("%4llu %6zu %11zu %8d %8d %5d %10s\n",
                static_cast<unsigned long long>(seed), golden.num_logic_gates(),
                total_candidates, applied, retyped, invs, all_equiv ? "OK" : "BROKEN");
    ok = ok && all_equiv;
  }
  return ok;
}

}  // namespace

int main() {
  const bool figure_ok = figure_case();
  const bool sweep_ok = random_sweep();
  return figure_ok && sweep_ok ? 0 : 1;
}
