#include "host_probe.hpp"

#include <algorithm>
#include <chrono>

namespace perfbench {

namespace {

constexpr std::uint32_t kNodes = 1u << 21;

std::uint64_t splitmix(std::uint64_t& s) {
  std::uint64_t z = (s += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace

HostProbe::HostProbe(std::uint64_t seed) : fanin_(2 * kNodes), delay_(kNodes), arrival_(kNodes, 0.0) {
  // Half of the fanins are recent nodes (netlist-like locality), half are
  // anywhere earlier, so that most of those loads miss the private caches.
  for (std::uint32_t i = 1; i < kNodes; ++i) {
    for (int k = 0; k < 2; ++k) {
      const std::uint64_t r = splitmix(seed);
      const std::uint32_t back = (r & 1) == 0 ? 1 + static_cast<std::uint32_t>((r >> 1) % i)
                                              : 1 + static_cast<std::uint32_t>((r >> 1) % std::min(i, 256u));
      fanin_[2 * i + k] = i - back;
    }
    delay_[i] = 0.05 + static_cast<double>(splitmix(seed) % 1000) * 1e-4;
  }
}

double HostProbe::sample() {
  const auto t0 = std::chrono::steady_clock::now();
  constexpr double kLimit = 2.0;
  for (std::uint32_t i = 1; i < kNodes; ++i) {
    const double a = arrival_[fanin_[2 * i]];
    const double b = arrival_[fanin_[2 * i + 1]];
    double t = (a > b ? a : b) + delay_[i];
    if (t > kLimit) {  // data-dependent branch, like a slack check
      t = 0.5 * t;
    }
    arrival_[i] = t;
  }
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

}  // namespace perfbench
