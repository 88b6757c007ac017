#include "gen/large.hpp"

#include <algorithm>
#include <string>
#include <vector>

#include "gen/arith.hpp"
#include "netlist/builder.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace rapids {

namespace {

/// Draw `n` operands from the live signal pool (with replacement; the
/// pool is recent-biased, see below).
std::vector<GateId> draw(Rng& rng, const std::vector<GateId>& pool, int n) {
  std::vector<GateId> xs(static_cast<std::size_t>(n));
  for (GateId& x : xs) x = pool[rng.next_below(pool.size())];
  return xs;
}

/// Reduce `xs` to one signal with every supergate bounded: fold in chunks
/// of <= 32 and ALTERNATE the level type between the xor family and the
/// controlling family. GISG absorption never crosses the two families, so
/// each level's chunk is its own <= 32-leaf supergate — a single
/// network-wide XOR tree would be ONE supergate with tens of thousands of
/// leaves and a quadratic swap-enumeration bill.
GateId fold_bounded(NetworkBuilder& b, std::vector<GateId> xs) {
  constexpr std::size_t kChunk = 32;
  GateType t = GateType::Xor;
  while (xs.size() > kChunk) {
    std::vector<GateId> next;
    next.reserve((xs.size() + kChunk - 1) / kChunk);
    for (std::size_t i = 0; i < xs.size(); i += kChunk) {
      const std::size_t last = std::min(xs.size(), i + kChunk);
      next.push_back(b.tree(
          t, std::vector<GateId>(xs.begin() + static_cast<std::ptrdiff_t>(i),
                                 xs.begin() + static_cast<std::ptrdiff_t>(last))));
    }
    xs = std::move(next);
    t = t == GateType::Xor ? GateType::Or : GateType::Xor;
  }
  return b.tree(t, std::move(xs));
}

}  // namespace

Network make_large_circuit(const LargeCircuitOptions& options) {
  RAPIDS_ASSERT(options.target_gates > 0 && options.num_inputs >= 4 &&
                options.max_outputs >= 2);
  NetworkBuilder b;
  Rng rng(options.seed);

  std::vector<GateId> inputs;
  inputs.reserve(static_cast<std::size_t>(options.num_inputs));
  for (int i = 0; i < options.num_inputs; ++i) {
    inputs.push_back(b.input("pi" + std::to_string(i)));
  }

  // The pool chains blocks into reconvergent columns: each block draws
  // operands from recent block outputs, and every kColumnBlocks blocks the
  // pool resets to the primary inputs. Logic depth is therefore bounded by
  // one column regardless of the gate target — the circuit grows WIDE with
  // size, not deep, so per-probe incremental STA cost stays flat from 10k
  // to 500k gates (the property `rapids bench scale` measures).
  constexpr std::size_t kColumnBlocks = 24;
  std::vector<GateId> pool = inputs;

  std::vector<GateId> po_candidates;
  auto emit = [&](const std::vector<GateId>& outs) {
    for (GateId g : outs) {
      pool.push_back(g);
      po_candidates.push_back(g);
    }
  };

  // Rotate through the block families until the gate target is crossed.
  std::size_t block = 0;
  while (b.net().num_logic_gates() < options.target_gates) {
    if (block > 0 && block % kColumnBlocks == 0) pool = inputs;
    switch (block++ % 5) {
      case 0: {  // ripple adder chunk (carry chains: long critical paths)
        const int w = rng.next_int(8, 32);
        AdderOutputs add = ripple_adder(b, draw(rng, pool, w), draw(rng, pool, w),
                                        pool[rng.next_below(pool.size())]);
        add.sum.push_back(add.cout);
        emit(add.sum);
        break;
      }
      case 1: {  // comparator + parity (wide AND/OR + XOR mix)
        const int w = rng.next_int(8, 24);
        const ComparatorOutputs cmp =
            comparator(b, draw(rng, pool, w), draw(rng, pool, w));
        emit({cmp.gt, cmp.eq, parity_tree(b, draw(rng, pool, w))});
        break;
      }
      case 2: {  // PLA-style two-level control cube (wide supergates)
        const int products = rng.next_int(12, 24);
        const int outs = rng.next_int(4, 8);
        std::vector<GateId> terms;
        terms.reserve(static_cast<std::size_t>(products));
        for (int p = 0; p < products; ++p) {
          std::vector<GateId> lits = draw(rng, pool, rng.next_int(3, 6));
          for (GateId& l : lits) {
            if (rng.next_bool(0.4)) l = b.inv(l);
          }
          terms.push_back(b.and_(lits));
        }
        std::vector<GateId> os;
        os.reserve(static_cast<std::size_t>(outs));
        for (int o = 0; o < outs; ++o) {
          os.push_back(b.or_(draw(rng, terms, rng.next_int(2, 6))));
        }
        emit(os);
        break;
      }
      case 3: {  // ECC-style syndrome: XOR trees + AND decode + correct
        const int w = rng.next_int(12, 32);
        const std::vector<GateId> data = draw(rng, pool, w);
        const GateId s0 = b.tree(GateType::Xor, draw(rng, pool, w));
        const GateId s1 = b.tree(GateType::Xor, draw(rng, pool, w));
        const GateId s2 = b.tree(GateType::Xor, draw(rng, pool, w));
        std::vector<GateId> corrected;
        corrected.reserve(static_cast<std::size_t>(w));
        for (int i = 0; i < w; ++i) {
          const GateId dec = b.and_({rng.next_bool() ? s0 : b.inv(s0),
                                     rng.next_bool() ? s1 : b.inv(s1),
                                     rng.next_bool() ? s2 : b.inv(s2)});
          corrected.push_back(b.xor_({data[static_cast<std::size_t>(i)], dec}));
        }
        emit(corrected);
        break;
      }
      default: {  // mux/select control block (shallow wide cones)
        const int w = rng.next_int(8, 16);
        const GateId sel = b.or_(draw(rng, pool, 3));
        const GateId nsel = b.inv(sel);
        std::vector<GateId> os;
        os.reserve(static_cast<std::size_t>(w));
        for (int i = 0; i < w; ++i) {
          const GateId a = pool[rng.next_below(pool.size())];
          const GateId c = pool[rng.next_below(pool.size())];
          os.push_back(b.or_({b.and_({sel, a}), b.and_({nsel, c})}));
        }
        emit(os);
        break;
      }
    }
  }

  // Primary outputs: the newest candidates become direct POs up to the
  // cap; every older candidate folds into bounded parity POs so no logic
  // dangles (the sweep in map_network would otherwise drop it).
  const std::size_t direct =
      std::min(po_candidates.size(), static_cast<std::size_t>(options.max_outputs) - 1);
  const std::size_t first_direct = po_candidates.size() - direct;
  int po = 0;
  for (std::size_t i = first_direct; i < po_candidates.size(); ++i) {
    b.output("po" + std::to_string(po++), po_candidates[i]);
  }
  if (first_direct > 0) {
    const std::vector<GateId> rest(po_candidates.begin(),
                                   po_candidates.begin() +
                                       static_cast<std::ptrdiff_t>(first_direct));
    b.output("po" + std::to_string(po++), fold_bounded(b, rest));
  }
  return b.take();
}

}  // namespace rapids
