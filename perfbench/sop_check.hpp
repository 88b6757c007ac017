// Output check for the benchmark, independent of the library's io/ and
// verify/ layers: a small SOP `.names` reader and a 64-bit-parallel
// simulator that compares two combinational BLIF files on seeded random
// vectors, matching primary inputs and outputs by name.
#pragma once

#include <cstdint>
#include <string>

namespace perfbench {

struct SopCheckResult {
  bool equivalent = false;
  std::uint64_t vectors = 0;
  std::string message;  // why the check failed (empty when equivalent)
};

/// Compare `reference` and `candidate` on `vectors` random input vectors
/// (rounded up to a multiple of 64). PI values are drawn per input NAME, so
/// the order of `.inputs` in either file does not matter.
SopCheckResult check_blif_pair(const std::string& reference, const std::string& candidate,
                               std::uint64_t vectors, std::uint64_t seed);

}  // namespace perfbench
