#include "parallel/conflict.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace rapids {

bool ConflictSignature::overlaps(const ConflictSignature& other) const {
  auto a = touched.begin();
  auto b = other.touched.begin();
  while (a != touched.end() && b != other.touched.end()) {
    if (*a < *b) {
      ++a;
    } else if (*b < *a) {
      ++b;
    } else {
      return true;
    }
  }
  return false;
}

void ConflictSignature::merge(const ConflictSignature& other) {
  if (other.touched.empty()) return;
  const std::size_t mid = touched.size();
  touched.insert(touched.end(), other.touched.begin(), other.touched.end());
  std::inplace_merge(touched.begin(), touched.begin() + static_cast<std::ptrdiff_t>(mid),
                     touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
}

namespace {

/// Collect the direct touch set of a move: every gate whose driven net the
/// move's apply would invalidate, plus every gate it retimes in place.
/// Mirrors RewireEngine::apply_and_invalidate's invalidation pattern.
void direct_touches(const Network& net, const EngineMove& move,
                    std::vector<GateId>& out) {
  switch (move.kind()) {
    case EngineMove::Kind::Swap: {
      const SwapCandidate& c = move.swap_cand();
      const GateId da = net.driver_of(c.pin_a);
      const GateId db = net.driver_of(c.pin_b);
      out.push_back(c.pin_a.gate);
      out.push_back(c.pin_b.gate);
      out.push_back(da);
      out.push_back(db);
      if (c.polarity == SwapPolarity::Inverting) {
        // An inverting swap that reuses an existing inverter's input also
        // dirties that input's net (complement_driver's reuse path).
        if (net.type(da) == GateType::Inv) out.push_back(net.fanin(da, 0));
        if (net.type(db) == GateType::Inv) out.push_back(net.fanin(db, 0));
      }
      break;
    }
    case EngineMove::Kind::Resize: {
      out.push_back(move.gate());
      for (const GateId f : net.fanins(move.gate())) out.push_back(f);
      break;
    }
  }
}

/// Widen `sig` (already sorted-unique) by `depth` levels of fanout cone:
/// the gates incremental STA propagation reaches first when the touched
/// nets are invalidated.
void widen_by_fanout_cone(const Network& net, int depth, std::vector<GateId>& gates) {
  std::vector<GateId> frontier = gates;
  std::vector<GateId> next;
  for (int d = 0; d < depth && !frontier.empty(); ++d) {
    next.clear();
    for (const GateId g : frontier) {
      if (net.is_deleted(g)) continue;
      for (const Pin& pin : net.fanouts(g)) next.push_back(pin.gate);
    }
    std::sort(next.begin(), next.end());
    next.erase(std::unique(next.begin(), next.end()), next.end());
    gates.insert(gates.end(), next.begin(), next.end());
    frontier = next;
  }
  std::sort(gates.begin(), gates.end());
  gates.erase(std::unique(gates.begin(), gates.end()), gates.end());
}

}  // namespace

ConflictSignature move_signature(const Network& net, const EngineMove& move,
                                 int cone_depth) {
  ConflictSignature sig;
  direct_touches(net, move, sig.touched);
  std::sort(sig.touched.begin(), sig.touched.end());
  sig.touched.erase(std::unique(sig.touched.begin(), sig.touched.end()),
                    sig.touched.end());
  widen_by_fanout_cone(net, cone_depth, sig.touched);
  return sig;
}

ConflictSignature group_signature(const Network& net, std::span<const EngineMove> moves,
                                  int cone_depth) {
  ConflictSignature sig;
  for (const EngineMove& m : moves) direct_touches(net, m, sig.touched);
  std::sort(sig.touched.begin(), sig.touched.end());
  sig.touched.erase(std::unique(sig.touched.begin(), sig.touched.end()),
                    sig.touched.end());
  widen_by_fanout_cone(net, cone_depth, sig.touched);
  return sig;
}

std::vector<int> assign_shards(const std::vector<ConflictSignature>& sigs,
                               int num_shards) {
  return assign_shards(sigs, {}, num_shards);
}

std::vector<int> assign_shards(const std::vector<ConflictSignature>& sigs,
                               const std::vector<std::uint64_t>& weights,
                               int num_shards) {
  const int n = static_cast<int>(sigs.size());
  num_shards = std::max(num_shards, 1);
  RAPIDS_ASSERT(weights.empty() || weights.size() == sigs.size());
  const auto weight_of = [&](int g) -> std::uint64_t {
    return weights.empty() ? 1 : weights[static_cast<std::size_t>(g)];
  };

  // Union-find over groups, keyed by touched gate: the first group to touch
  // a gate owns it; later touches union into the owner. Linear in total
  // signature size.
  std::vector<int> parent(static_cast<std::size_t>(n));
  for (int g = 0; g < n; ++g) parent[static_cast<std::size_t>(g)] = g;
  auto find = [&](int x) {
    while (parent[static_cast<std::size_t>(x)] != x) {
      parent[static_cast<std::size_t>(x)] =
          parent[static_cast<std::size_t>(parent[static_cast<std::size_t>(x)])];
      x = parent[static_cast<std::size_t>(x)];
    }
    return x;
  };
  // Union by smaller root index so every component's representative is its
  // smallest group — canonical regardless of union order.
  auto unite = [&](int a, int b) {
    a = find(a);
    b = find(b);
    if (a == b) return;
    if (b < a) std::swap(a, b);
    parent[static_cast<std::size_t>(b)] = a;
  };

  GateId max_gate = 0;
  for (const ConflictSignature& s : sigs) {
    if (!s.touched.empty()) max_gate = std::max(max_gate, s.touched.back());
  }
  std::vector<int> owner(static_cast<std::size_t>(max_gate) + 1, -1);
  for (int g = 0; g < n; ++g) {
    for (const GateId id : sigs[static_cast<std::size_t>(g)].touched) {
      int& o = owner[id];
      if (o < 0) {
        o = g;
      } else {
        unite(o, g);
      }
    }
  }

  std::vector<int> shard_of(static_cast<std::size_t>(n), 0);
  if (num_shards == 1) return shard_of;

  std::vector<int> comp_groups(static_cast<std::size_t>(n), 0);
  std::vector<std::uint64_t> comp_weight(static_cast<std::size_t>(n), 0);
  std::uint64_t total_weight = 0;
  for (int g = 0; g < n; ++g) {
    const std::size_t root = static_cast<std::size_t>(find(g));
    ++comp_groups[root];
    comp_weight[root] += weight_of(g);
    total_weight += weight_of(g);
  }

  // Components above one shard's fair share of WEIGHT would starve the
  // pool if kept atomic (a connected netlist usually chains most groups
  // into one component); their groups are dealt greedily onto the
  // least-weighted shard instead — weight, not group count, is what the
  // workers actually pay per probe. The >4-group floor keeps tiny
  // candidate sets — where locality is all that matters — atomic. With
  // unit weights this reduces exactly to the old count-based rule.
  const std::uint64_t fair_weight =
      total_weight / static_cast<std::uint64_t>(num_shards);

  // Smaller components stay atomic and go, in order of their smallest
  // group index, onto the currently least-weighted shard (ties: lowest
  // shard). Everything here is a pure function of (sigs, weights,
  // num_shards).
  std::vector<int> comp_shard(static_cast<std::size_t>(n), -1);
  std::vector<std::uint64_t> load(static_cast<std::size_t>(num_shards), 0);
  const auto least_loaded = [&] {
    int s = 0;
    for (int k = 1; k < num_shards; ++k) {
      if (load[static_cast<std::size_t>(k)] < load[static_cast<std::size_t>(s)]) {
        s = k;
      }
    }
    return s;
  };
  for (int g = 0; g < n; ++g) {
    const std::size_t root = static_cast<std::size_t>(find(g));
    if (comp_groups[root] > 4 && comp_weight[root] > fair_weight) {
      const int s = least_loaded();
      shard_of[static_cast<std::size_t>(g)] = s;
      load[static_cast<std::size_t>(s)] += weight_of(g);
      continue;
    }
    int& s = comp_shard[root];
    if (s < 0) {
      s = least_loaded();
      load[static_cast<std::size_t>(s)] += comp_weight[root];
    }
    shard_of[static_cast<std::size_t>(g)] = s;
  }
  return shard_of;
}

}  // namespace rapids
