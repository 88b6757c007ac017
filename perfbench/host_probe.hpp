// A fixed unit of work whose wall time stands for the host's current speed.
//
// On a shared host the same flow's wall time drifts by 20-40% over minutes,
// and CPU time drifts with it, so neither can be compared across runs made
// at different times. The harness times this probe between measured flows
// and scales each run's times to a reference host speed. The work is shaped
// like the flow's inner loops (max-plus arrival propagation over a random
// levelized DAG, with data-dependent loads and branches) over about 48 MB,
// so that it also feels contention for the shared cache and memory, which
// slows the flows more than it slows cache-resident code. It depends on
// nothing in the program under test, so a change to the program never moves
// it.
#pragma once

#include <cstdint>
#include <vector>

namespace perfbench {

class HostProbe {
 public:
  explicit HostProbe(std::uint64_t seed = 1);

  /// Wall seconds of one unit of work (the same work on every call).
  double sample();

 private:
  std::vector<std::uint32_t> fanin_;  // two per node, both earlier nodes
  std::vector<double> delay_;
  std::vector<double> arrival_;  // written by every sample, so the work is kept
};

}  // namespace perfbench
