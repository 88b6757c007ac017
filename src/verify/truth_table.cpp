#include "verify/truth_table.hpp"

#include "util/assert.hpp"
#include "verify/simulator.hpp"

namespace rapids {

namespace {
constexpr std::uint64_t kVarPattern[6] = {0xAAAAAAAAAAAAAAAAULL, 0xCCCCCCCCCCCCCCCCULL,
                                          0xF0F0F0F0F0F0F0F0ULL, 0xFF00FF00FF00FF00ULL,
                                          0xFFFF0000FFFF0000ULL, 0xFFFFFFFF00000000ULL};
}

TruthTable6::TruthTable6(int num_vars, std::uint64_t bits) : num_vars_(num_vars) {
  RAPIDS_ASSERT(num_vars >= 0 && num_vars <= 6);
  bits_ = bits & mask();
}

std::uint64_t TruthTable6::mask() const {
  return num_vars_ == 6 ? ~0ULL : ((1ULL << (1u << num_vars_)) - 1);
}

TruthTable6 TruthTable6::variable(int num_vars, int i) {
  RAPIDS_ASSERT(i >= 0 && i < num_vars);
  return TruthTable6(num_vars, kVarPattern[i]);
}

TruthTable6 TruthTable6::constant(int num_vars, bool value) {
  return TruthTable6(num_vars, value ? ~0ULL : 0ULL);
}

bool TruthTable6::value_at(std::uint64_t assignment) const {
  // Six variables fill all 64 bits; testing that first keeps the shift
  // below the word width.
  RAPIDS_ASSERT(num_vars_ == 6 ? assignment < 64
                               : assignment < (1ULL << (1u << num_vars_)));
  return (bits_ >> assignment) & 1ULL;
}

TruthTable6 TruthTable6::cofactor(int var, bool value) const {
  RAPIDS_ASSERT(var >= 0 && var < num_vars_);
  const std::uint64_t var_mask = kVarPattern[var];
  const int stride = 1 << var;
  std::uint64_t kept = value ? (bits_ & var_mask) : (bits_ & ~var_mask);
  // Copy the kept half into the vacated half so the result is independent
  // of `var`.
  if (value) {
    kept |= kept >> stride;
  } else {
    kept |= kept << stride;
  }
  return TruthTable6(num_vars_, kept);
}

TruthTable6 TruthTable6::swap_vars(int i, int j) const {
  RAPIDS_ASSERT(i >= 0 && i < num_vars_ && j >= 0 && j < num_vars_);
  if (i == j) return *this;
  std::uint64_t out = 0;
  const std::uint64_t rows = 1ULL << num_vars_;
  for (std::uint64_t m = 0; m < rows; ++m) {
    const std::uint64_t bi = (m >> i) & 1ULL;
    const std::uint64_t bj = (m >> j) & 1ULL;
    std::uint64_t swapped = m & ~((1ULL << i) | (1ULL << j));
    swapped |= bj << i;
    swapped |= bi << j;
    if ((bits_ >> m) & 1ULL) out |= 1ULL << swapped;
  }
  return TruthTable6(num_vars_, out);
}

bool TruthTable6::nes(int i, int j) const {
  return cofactor(i, true).cofactor(j, false) == cofactor(i, false).cofactor(j, true);
}

bool TruthTable6::es(int i, int j) const {
  return cofactor(i, true).cofactor(j, true) == cofactor(i, false).cofactor(j, false);
}

bool TruthTable6::depends_on(int var) const {
  return cofactor(var, true) != cofactor(var, false);
}

std::string TruthTable6::to_string() const {
  const std::uint64_t rows = 1ULL << num_vars_;
  std::string s;
  s.reserve(rows);
  for (std::uint64_t m = 0; m < rows; ++m) s.push_back(value_at(m) ? '1' : '0');
  return s;
}

TruthTable6 truth_table_of(const Network& net, GateId root) {
  const auto pis = net.primary_inputs();
  RAPIDS_ASSERT_MSG(pis.size() <= 6, "truth_table_of supports at most 6 PIs");
  Simulator sim(net);
  std::vector<std::uint64_t> words(pis.size());
  for (std::size_t i = 0; i < pis.size(); ++i) words[i] = kVarPattern[i];
  sim.run(words);
  return TruthTable6(static_cast<int>(pis.size()), sim.value(root));
}

}  // namespace rapids
