#include "sop_check.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <unordered_map>
#include <vector>

namespace perfbench {

namespace {

constexpr std::uint32_t kUndefined = 0xffffffffu;
constexpr std::size_t kWords = 16;  // 1024 vectors per simulation batch

/// One `.names` cover: rows of '0'/'1'/'-' over the fanins. on_set=false
/// means the rows list the OFF-set (output column 0).
struct Cover {
  std::vector<std::uint32_t> fanins;
  std::vector<std::string> rows;
  bool on_set = true;
};

struct Circuit {
  std::vector<std::string> names;                       // signal id -> name
  std::unordered_map<std::string, std::uint32_t> ids;   // name -> signal id
  std::vector<std::uint32_t> cover_of;                  // signal id -> cover or kUndefined
  std::vector<bool> is_input;
  std::vector<Cover> covers;
  std::vector<std::uint32_t> inputs, outputs;
  std::vector<std::uint32_t> cover_driver;               // cover -> driven signal

  std::uint32_t signal(const std::string& name) {
    const auto [it, inserted] = ids.emplace(name, static_cast<std::uint32_t>(names.size()));
    if (inserted) {
      names.push_back(name);
      cover_of.push_back(kUndefined);
      is_input.push_back(false);
    }
    return it->second;
  }
};

[[noreturn]] void fail(const std::string& path, std::size_t line, const std::string& what) {
  throw std::runtime_error(path + ":" + std::to_string(line) + ": " + what);
}

/// Logical lines: comments stripped, '\' continuations joined. Each entry
/// keeps the physical line number it started on.
std::vector<std::pair<std::size_t, std::string>> logical_lines(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("cannot read " + path);
  std::vector<std::pair<std::size_t, std::string>> out;
  std::string line, pending;
  std::size_t number = 0, start = 0;
  while (std::getline(is, line)) {
    ++number;
    if (const std::size_t hash = line.find('#'); hash != std::string::npos) line.resize(hash);
    while (!line.empty() && (line.back() == '\r' || line.back() == ' ' || line.back() == '\t')) {
      line.pop_back();
    }
    if (pending.empty()) start = number;
    if (!line.empty() && line.back() == '\\') {
      line.pop_back();
      pending += line;
      pending += ' ';
      continue;
    }
    pending += line;
    if (pending.find_first_not_of(" \t") != std::string::npos) out.emplace_back(start, pending);
    pending.clear();
  }
  if (!pending.empty()) fail(path, start, "dangling line continuation");
  return out;
}

Circuit parse(const std::string& path) {
  Circuit c;
  Cover* open = nullptr;  // cover collecting rows
  bool ended = false;
  for (const auto& [number, text] : logical_lines(path)) {
    std::istringstream ss(text);
    std::vector<std::string> tok;
    for (std::string t; ss >> t;) tok.push_back(std::move(t));
    if (ended) fail(path, number, "content after .end");
    if (tok[0][0] != '.') {
      if (open == nullptr) fail(path, number, "cover row outside .names");
      const std::size_t k = open->fanins.size();
      if (tok.size() != (k == 0 ? 1u : 2u)) fail(path, number, "malformed cover row");
      const std::string cube = k == 0 ? std::string() : tok[0];
      const std::string& bit = tok.back();
      if (cube.size() != k) fail(path, number, "cube width does not match .names");
      if (cube.find_first_not_of("01-") != std::string::npos) fail(path, number, "bad cube");
      if (bit != "0" && bit != "1") fail(path, number, "bad output column");
      const bool on = bit == "1";
      if (!open->rows.empty() && on != open->on_set) fail(path, number, "mixed ON/OFF rows");
      open->on_set = on;
      open->rows.push_back(cube);
      continue;
    }
    open = nullptr;
    const std::string& kw = tok[0];
    if (kw == ".model") continue;
    if (kw == ".end") {
      ended = true;
      continue;
    }
    if (kw == ".inputs" || kw == ".outputs") {
      for (std::size_t i = 1; i < tok.size(); ++i) {
        const std::uint32_t s = c.signal(tok[i]);
        if (kw == ".inputs") {
          if (c.is_input[s] || c.cover_of[s] != kUndefined) fail(path, number, "input redefined: " + tok[i]);
          c.is_input[s] = true;
          c.inputs.push_back(s);
        } else {
          c.outputs.push_back(s);
        }
      }
      continue;
    }
    if (kw == ".names") {
      if (tok.size() < 2) fail(path, number, ".names without a signal");
      Cover cover;
      for (std::size_t i = 1; i + 1 < tok.size(); ++i) cover.fanins.push_back(c.signal(tok[i]));
      const std::uint32_t out = c.signal(tok.back());
      if (c.is_input[out] || c.cover_of[out] != kUndefined) {
        fail(path, number, "signal redefined: " + tok.back());
      }
      c.cover_of[out] = static_cast<std::uint32_t>(c.covers.size());
      c.covers.push_back(std::move(cover));
      c.cover_driver.push_back(out);
      open = &c.covers.back();
      continue;
    }
    fail(path, number, "unsupported construct " + kw);
  }
  for (std::uint32_t s = 0; s < c.names.size(); ++s) {
    if (!c.is_input[s] && c.cover_of[s] == kUndefined) {
      throw std::runtime_error(path + ": undefined signal " + c.names[s]);
    }
  }
  return c;
}

/// Covers in dependency order (every fanin before its reader).
std::vector<std::uint32_t> topo_order(const Circuit& c, const std::string& path) {
  std::vector<std::uint8_t> state(c.names.size(), 0);  // 0 new, 1 open, 2 done
  std::vector<std::uint32_t> order;
  order.reserve(c.covers.size());
  std::vector<std::pair<std::uint32_t, std::size_t>> stack;
  for (std::uint32_t root = 0; root < c.names.size(); ++root) {
    if (state[root] != 0) continue;
    stack.emplace_back(root, 0);
    state[root] = 1;
    while (!stack.empty()) {
      auto& [s, next] = stack.back();
      const std::uint32_t cov = c.cover_of[s];
      if (cov != kUndefined && next < c.covers[cov].fanins.size()) {
        const std::uint32_t f = c.covers[cov].fanins[next++];
        if (state[f] == 1) throw std::runtime_error(path + ": combinational cycle at " + c.names[f]);
        if (state[f] == 0) {
          state[f] = 1;
          stack.emplace_back(f, 0);
        }
        continue;
      }
      state[s] = 2;
      if (cov != kUndefined) order.push_back(cov);
      stack.pop_back();
    }
  }
  return order;
}

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t name_hash(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char ch : s) h = (h ^ ch) * 0x100000001b3ULL;
  return h;
}

/// Evaluates a circuit 64 * kWords vectors at a time. Input words derive
/// from (seed, input name, batch), so two circuits with the same input
/// names see the same vectors.
class Simulator {
 public:
  Simulator(const Circuit& c, const std::string& path)
      : c_(c), order_(topo_order(c, path)), values_(c.names.size() * kWords) {
    input_hash_.reserve(c.inputs.size());
    for (const std::uint32_t s : c.inputs) input_hash_.push_back(name_hash(c.names[s]));
  }

  void run(std::uint64_t seed, std::uint64_t batch) {
    for (std::size_t i = 0; i < c_.inputs.size(); ++i) {
      std::uint64_t* v = slot(c_.inputs[i]);
      for (std::size_t w = 0; w < kWords; ++w) {
        v[w] = splitmix64(seed ^ input_hash_[i] ^ splitmix64(batch * kWords + w));
      }
    }
    for (const std::uint32_t cov : order_) {
      const Cover& cover = c_.covers[cov];
      std::uint64_t acc[kWords] = {};
      for (const std::string& row : cover.rows) {
        std::uint64_t term[kWords];
        std::fill(term, term + kWords, ~0ULL);
        for (std::size_t i = 0; i < row.size(); ++i) {
          if (row[i] == '-') continue;
          const std::uint64_t* f = word(cover.fanins[i]);
          const std::uint64_t flip = row[i] == '0' ? ~0ULL : 0ULL;
          for (std::size_t w = 0; w < kWords; ++w) term[w] &= f[w] ^ flip;
        }
        for (std::size_t w = 0; w < kWords; ++w) acc[w] |= term[w];
      }
      std::uint64_t* out = slot(c_.cover_driver[cov]);
      const std::uint64_t flip = cover.on_set ? 0ULL : ~0ULL;
      for (std::size_t w = 0; w < kWords; ++w) out[w] = acc[w] ^ flip;
    }
  }

  const std::uint64_t* word(std::uint32_t s) const { return &values_[s * kWords]; }

 private:
  std::uint64_t* slot(std::uint32_t s) { return &values_[s * kWords]; }

  const Circuit& c_;
  std::vector<std::uint32_t> order_;
  std::vector<std::uint64_t> values_;
  std::vector<std::uint64_t> input_hash_;
};

std::vector<std::string> sorted_names(const Circuit& c, const std::vector<std::uint32_t>& ids) {
  std::vector<std::string> out;
  out.reserve(ids.size());
  for (const std::uint32_t s : ids) out.push_back(c.names[s]);
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace

SopCheckResult check_blif_pair(const std::string& reference, const std::string& candidate,
                               std::uint64_t vectors, std::uint64_t seed) {
  SopCheckResult res;
  try {
    const Circuit a = parse(reference);
    const Circuit b = parse(candidate);
    if (sorted_names(a, a.inputs) != sorted_names(b, b.inputs)) {
      res.message = "primary inputs differ";
      return res;
    }
    if (sorted_names(a, a.outputs) != sorted_names(b, b.outputs)) {
      res.message = "primary outputs differ";
      return res;
    }
    Simulator sa(a, reference), sb(b, candidate);
    const std::uint64_t batches = std::max<std::uint64_t>(1, (vectors + 64 * kWords - 1) / (64 * kWords));
    for (std::uint64_t batch = 0; batch < batches; ++batch) {
      sa.run(seed, batch);
      sb.run(seed, batch);
      for (const std::uint32_t po : a.outputs) {
        const std::uint64_t* va = sa.word(po);
        const std::uint64_t* vb = sb.word(b.ids.at(a.names[po]));
        if (!std::equal(va, va + kWords, vb)) {
          res.message = "output " + a.names[po] + " differs";
          return res;
        }
      }
      res.vectors += 64 * kWords;
    }
    res.equivalent = true;
  } catch (const std::exception& e) {
    res.message = e.what();
  }
  return res;
}

}  // namespace perfbench
