#include "io/blif_reader.hpp"

#include <fstream>
#include <istream>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/assert.hpp"

namespace rapids {

namespace {

// Streaming ingest: the whole stream lands in ONE buffer and every token,
// signal name and cover row is a string_view into it — no per-line
// istringstream, no per-token std::string. On multi-hundred-thousand-gate
// BLIFs the old tokenizer spent more time in allocator churn than in
// network construction; this path is allocation-free per token.

/// A .names block. Cover rows are "<mask> <val>", or just "<val>" in
/// constant blocks; parse() validates every row against the block, so only
/// the masks (empty for constant rows) and their shared output value are
/// kept.
struct NamesBlock {
  std::vector<std::string_view> signals;  // inputs..., output last
  std::vector<std::string_view> cover;    // row masks
  bool onset = true;                      // every row's output value is 1
};

struct BlifModel {
  std::string_view name;
  std::vector<std::string_view> inputs;
  std::vector<std::string_view> outputs;
  std::vector<NamesBlock> names;
  std::vector<std::pair<std::string_view, std::string_view>> latches;  // (in, out)
};

/// Logical-line lexer over the buffer: yields the token list of the next
/// non-empty line, splicing '\'-continued physical lines together and
/// stripping '#' comments in place.
class LineLexer {
 public:
  explicit LineLexer(std::string_view buf) : buf_(buf) {}

  int line_no() const { return line_no_; }

  /// Fill `toks` with the next logical line's tokens. False at EOF.
  bool next(std::vector<std::string_view>& toks) {
    toks.clear();
    while (pos_ < buf_.size()) {
      // Lex one physical line, appending to toks.
      while (pos_ < buf_.size() && buf_[pos_] != '\n') {
        const char c = buf_[pos_];
        if (c == ' ' || c == '\t' || c == '\r') {
          ++pos_;
          continue;
        }
        if (c == '#') {  // comment runs to end of physical line
          while (pos_ < buf_.size() && buf_[pos_] != '\n') ++pos_;
          break;
        }
        const std::size_t start = pos_;
        while (pos_ < buf_.size() && buf_[pos_] != '\n' && buf_[pos_] != ' ' &&
               buf_[pos_] != '\t' && buf_[pos_] != '\r' && buf_[pos_] != '#') {
          ++pos_;
        }
        toks.push_back(buf_.substr(start, pos_ - start));
      }
      if (pos_ < buf_.size()) ++pos_;  // consume '\n'
      ++line_no_;
      // '\' at end of line: splice the next physical line in.
      if (!toks.empty() && toks.back().back() == '\\') {
        if (toks.back().size() == 1) {
          toks.pop_back();
        } else {
          toks.back().remove_suffix(1);
        }
        continue;
      }
      if (!toks.empty()) return true;
    }
    return !toks.empty();
  }

 private:
  std::string_view buf_;
  std::size_t pos_ = 0;
  int line_no_ = 0;
};

BlifModel parse(std::string_view buf) {
  BlifModel model;
  LineLexer lex(buf);
  std::vector<std::string_view> toks;
  NamesBlock* current = nullptr;
  auto fail = [&lex](const std::string& msg) {
    throw InputError("blif line " + std::to_string(lex.line_no()) + ": " + msg);
  };
  while (lex.next(toks)) {
    if (toks[0] == ".model") {
      if (toks.size() >= 2) model.name = toks[1];
      current = nullptr;
    } else if (toks[0] == ".inputs") {
      model.inputs.insert(model.inputs.end(), toks.begin() + 1, toks.end());
      current = nullptr;
    } else if (toks[0] == ".outputs") {
      model.outputs.insert(model.outputs.end(), toks.begin() + 1, toks.end());
      current = nullptr;
    } else if (toks[0] == ".names") {
      if (toks.size() < 2) fail(".names needs at least an output");
      NamesBlock block;
      block.signals.assign(toks.begin() + 1, toks.end());
      model.names.push_back(std::move(block));
      current = &model.names.back();
    } else if (toks[0] == ".latch") {
      if (toks.size() < 3) fail(".latch needs input and output");
      model.latches.emplace_back(toks[1], toks[2]);
      current = nullptr;
    } else if (toks[0] == ".end") {
      break;
    } else if (toks[0][0] == '.') {
      // Unsupported directive (.clock, .gate, ...): ignore gracefully.
      current = nullptr;
    } else {
      if (current == nullptr) fail("cover row outside .names");
      if (toks.size() > 2) fail("malformed cover row");
      const std::size_t nin = current->signals.size() - 1;
      const std::string_view mask = toks.size() == 2 ? toks[0] : std::string_view{};
      const std::string_view val = toks.back();
      if (nin > 0 && mask.empty()) {
        fail("malformed cover row '" + std::string(val) + "'");
      }
      if (mask.size() != nin) {
        fail("cover width mismatch in '" + std::string(mask) + " " +
             std::string(val) + "'");
      }
      if (mask.find_first_not_of("01-") != std::string_view::npos) {
        fail("cover mask '" + std::string(mask) + "' has a character outside {0,1,-}");
      }
      if (val != "0" && val != "1") {
        fail("cover output value '" + std::string(val) + "' is not 0 or 1");
      }
      // BLIF covers list either the on-set or the off-set, never both.
      const bool onset = val == "1";
      if (!current->cover.empty() && onset != current->onset) {
        fail("cover rows of one .names block mix output values 0 and 1");
      }
      current->onset = onset;
      current->cover.push_back(mask);
    }
  }
  return model;
}

Network build(const BlifModel& model) {
  Network net;
  std::unordered_map<std::string_view, GateId> signal;  // name -> driver gate
  signal.reserve(model.names.size() + model.inputs.size() + model.latches.size());

  for (const std::string_view name : model.inputs) {
    signal[name] = net.add_gate(GateType::Input, std::string(name));
  }
  // Latch outputs become pseudo primary inputs.
  for (const auto& [d, q] : model.latches) {
    (void)d;
    signal[q] = net.add_gate(GateType::Input, std::string(q));
  }

  auto get_const = [&net](bool value) {
    return net.add_gate(value ? GateType::Const1 : GateType::Const0);
  };

  auto build_block = [&](const NamesBlock& block) -> bool {
    const std::string_view out_name = block.signals.back();
    const std::size_t nin = block.signals.size() - 1;
    for (std::size_t i = 0; i < nin; ++i) {
      if (signal.find(block.signals[i]) == signal.end()) return false;
    }
    GateId out = kNullGate;
    if (nin == 0) {
      // Constant: an on-set row makes it const1; an off-set row or an empty
      // cover is const0.
      out = get_const(!block.cover.empty() && block.onset);
    } else {
      // General SOP over the validated rows; an off-set cover is inverted.
      std::vector<GateId> products;
      for (const std::string_view mask : block.cover) {
        std::vector<GateId> lits;
        for (std::size_t i = 0; i < nin; ++i) {
          const GateId s = signal.at(block.signals[i]);
          if (mask[i] == '1') {
            lits.push_back(s);
          } else if (mask[i] == '0') {
            const GateId inv = net.add_gate(GateType::Inv);
            net.add_fanin(inv, s);
            lits.push_back(inv);
          }  // '-': absent
        }
        GateId product;
        if (lits.empty()) {
          product = get_const(true);
        } else if (lits.size() == 1) {
          product = lits[0];
        } else {
          product = net.add_gate(GateType::And);
          for (const GateId l : lits) net.add_fanin(product, l);
        }
        products.push_back(product);
      }
      if (products.empty()) {
        out = get_const(false);
      } else if (products.size() == 1) {
        out = products[0];
      } else {
        out = net.add_gate(GateType::Or);
        for (const GateId p : products) net.add_fanin(out, p);
      }
      if (!block.onset) {
        const GateId inv = net.add_gate(GateType::Inv);
        net.add_fanin(inv, out);
        out = inv;
      }
    }
    signal[out_name] = out;
    return true;
  };

  // Topologically defer: build a block once all its fanins are available,
  // iterating until no progress (files are rarely deeply out of order).
  std::vector<const NamesBlock*> pending;
  pending.reserve(model.names.size());
  for (const NamesBlock& block : model.names) pending.push_back(&block);
  while (!pending.empty()) {
    std::vector<const NamesBlock*> next;
    for (const NamesBlock* block : pending) {
      if (!build_block(*block)) next.push_back(block);
    }
    if (next.size() == pending.size()) {
      throw InputError("blif: unresolved signal in .names (cycle or typo): " +
                       std::string(next.front()->signals.back()));
    }
    pending = std::move(next);
  }

  for (const std::string_view name : model.outputs) {
    auto it = signal.find(name);
    if (it == signal.end()) throw InputError("blif: undefined output " + std::string(name));
    // Output markers carry the PO name (for by-name equivalence checking);
    // fall back to a suffix when an input already owns the name.
    const std::string po_name =
        net.find(std::string(name)) == kNullGate ? std::string(name)
                                                 : std::string(name) + "$po";
    const GateId po = net.add_gate(GateType::Output, po_name);
    net.add_fanin(po, it->second);
  }
  // Latch inputs become pseudo primary outputs.
  for (const auto& [d, q] : model.latches) {
    auto it = signal.find(d);
    if (it == signal.end()) {
      throw InputError("blif: undefined latch input " + std::string(d));
    }
    const GateId po = net.add_gate(GateType::Output, std::string(q) + "$next");
    net.add_fanin(po, it->second);
  }
  return net;
}

}  // namespace

Network read_blif(std::istream& in) {
  // Slurp the stream in 64 KiB chunks into one contiguous buffer; the
  // model's string_views all point into it.
  std::string buffer;
  char chunk[1 << 16];
  for (;;) {
    in.read(chunk, sizeof chunk);
    buffer.append(chunk, static_cast<std::size_t>(in.gcount()));
    if (!in) break;
  }
  const BlifModel model = parse(buffer);
  return build(model);
}

Network read_blif_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw InputError("cannot open BLIF file: " + path);
  return read_blif(in);
}

}  // namespace rapids
