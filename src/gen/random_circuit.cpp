#include "gen/random_circuit.hpp"

#include <string>
#include <vector>

#include "netlist/builder.hpp"
#include "util/assert.hpp"

namespace rapids {

Network random_network(std::uint64_t seed, const RandomCircuitOptions& options) {
  RAPIDS_ASSERT(options.num_inputs >= 1 && options.num_gates >= 1 &&
                options.num_outputs >= 1 && options.max_fanin >= 2);
  NetworkBuilder b;
  Rng rng(seed);
  std::vector<GateId> pool;
  for (int i = 0; i < options.num_inputs; ++i) {
    pool.push_back(b.input("x" + std::to_string(i)));
  }
  static constexpr GateType kTypes[8] = {GateType::And,  GateType::Nand, GateType::Or,
                                         GateType::Nor,  GateType::Xor,  GateType::Xnor,
                                         GateType::Inv,  GateType::Buf};
  int total_weight = 0;
  for (const int w : options.type_weights) total_weight += w;
  RAPIDS_ASSERT(total_weight > 0);
  const bool uniform = [&options] {
    for (const int w : options.type_weights) {
      if (w != options.type_weights[0]) return false;
    }
    return true;
  }();

  for (int i = 0; i < options.num_gates; ++i) {
    GateType type;
    if (uniform) {
      // Single draw — keeps the default profile byte-compatible with the
      // historical test-suite generator.
      type = kTypes[rng.next_below(8)];
    } else {
      int roll = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(total_weight)));
      int k = 0;
      while (roll >= options.type_weights[k]) roll -= options.type_weights[k++];
      type = kTypes[k];
    }
    if (is_multi_input(type)) {
      const int fanins = rng.next_int(2, options.max_fanin);
      std::vector<GateId> kids;
      for (int k = 0; k < fanins; ++k) kids.push_back(pool[rng.next_below(pool.size())]);
      pool.push_back(b.gate(type, kids));
    } else {
      pool.push_back(b.gate(type, {pool[rng.next_below(pool.size())]}));
    }
  }
  const int outputs = std::min<int>(options.num_outputs, static_cast<int>(pool.size()));
  for (int o = 0; o < outputs; ++o) {
    b.output("y" + std::to_string(o), pool[pool.size() - 1 - static_cast<std::size_t>(o)]);
  }
  Network net = b.take();
  net.sweep_dangling();
  return net;
}

RandomCircuitOptions random_fuzz_profile(std::uint64_t seed, std::uint64_t iter,
                                         int max_inputs, int max_gates) {
  Rng rng = Rng::substream(seed, iter * 2 + 1);  // decorrelated from the circuit seed
  RandomCircuitOptions opt;
  opt.num_inputs = rng.next_int(3, std::max(3, max_inputs));
  opt.num_gates = rng.next_int(8, std::max(8, max_gates));
  // random_network keeps only the output cones, so a circuit with a few
  // outputs drawn over many gates shrinks to a fraction of its draw: one
  // output per four gates keeps most of it.
  opt.num_outputs = rng.next_int(1, std::max(1, opt.num_gates / 4));
  opt.max_fanin = rng.next_int(2, 4);
  switch (rng.next_below(4)) {
    case 0:  // uniform
      break;
    case 1:  // AND/OR heavy: controlling-value rewiring territory
      opt.type_weights[0] = opt.type_weights[1] = opt.type_weights[2] =
          opt.type_weights[3] = 4;
      break;
    case 2:  // XOR heavy: parity cones, the SAT tier's stress case
      opt.type_weights[4] = opt.type_weights[5] = 5;
      break;
    case 3:  // inverter-rich: exercises inverter reuse/insertion paths
      opt.type_weights[6] = 4;
      opt.type_weights[7] = 2;
      break;
  }
  return opt;
}

}  // namespace rapids
