#include "io/bench_reader.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <sstream>
#include <unordered_map>
#include <vector>

#include "util/assert.hpp"

namespace rapids {

namespace {

std::string trim(const std::string& s) {
  std::size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

[[noreturn]] void fail(int line_no, const std::string& what) {
  throw InputError("bench line " + std::to_string(line_no) + ": " + what);
}

/// `NAME(arg, ...)` with nothing after the closing parenthesis. Returns
/// NAME upper-cased; `args` gets the trimmed, non-empty arguments.
std::string parse_call(const std::string& text, int line_no,
                       std::vector<std::string>& args) {
  const std::size_t l = text.find('(');
  if (l == std::string::npos || text.back() != ')') {
    fail(line_no, "expected NAME(args) with nothing after ')'");
  }
  std::string name = trim(text.substr(0, l));
  std::transform(name.begin(), name.end(), name.begin(),
                 [](unsigned char c) { return static_cast<char>(std::toupper(c)); });
  const std::string inner = text.substr(l + 1, text.size() - l - 2);
  if (inner.find_first_of("()") != std::string::npos) {
    fail(line_no, "unbalanced parentheses");
  }
  args.clear();
  if (trim(inner).empty()) return name;
  std::istringstream list(inner);
  for (std::string a; std::getline(list, a, ',');) {
    args.push_back(trim(a));
    if (args.back().empty()) fail(line_no, "empty argument");
  }
  if (inner.back() == ',') fail(line_no, "empty argument");
  return name;
}

/// Gate type of a bench operator; DFF is handled by the caller.
GateType gate_op(const std::string& op, std::size_t arity, int line_no) {
  GateType type;
  if (op == "NOT" || op == "INV") {
    type = GateType::Inv;
  } else if (op == "BUF" || op == "BUFF") {
    type = GateType::Buf;
  } else if (op == "AND" || op == "NAND" || op == "OR" || op == "NOR" || op == "XOR" ||
             op == "XNOR" || op == "NXOR") {
    type = gate_type_from_string(op);
  } else {
    fail(line_no, "unknown gate type '" + op + "'");
  }
  if (type == GateType::Inv || type == GateType::Buf) {
    if (arity != 1) fail(line_no, op + " takes exactly one input");
  } else if (arity == 0) {
    fail(line_no, op + " needs at least one input");
  }
  return type;
}

struct BenchLine {
  std::string output;
  std::string op;
  GateType type = GateType::Buf;  // unused for DFF
  std::vector<std::string> args;
  int line = 0;
};

}  // namespace

Network read_bench(std::istream& in) {
  std::vector<std::string> inputs, outputs;
  std::vector<BenchLine> gates;
  // Line of each signal's one definition (INPUT, gate or DFF output) and of
  // each OUTPUT declaration.
  std::unordered_map<std::string, int> defined_at, output_at;
  auto define = [&defined_at](const std::string& name, int line_no) {
    const auto [it, fresh] = defined_at.emplace(name, line_no);
    if (!fresh) {
      fail(line_no, "'" + name + "' redefined (first defined on line " +
                        std::to_string(it->second) + ")");
    }
  };
  std::string raw;
  std::vector<std::string> args;
  int line_no = 0;
  while (std::getline(in, raw)) {
    ++line_no;
    const std::size_t hash = raw.find('#');
    if (hash != std::string::npos) raw.erase(hash);
    const std::string line = trim(raw);
    if (line.empty()) continue;
    const std::size_t eq = line.find('=');
    if (eq == std::string::npos) {
      const std::string keyword = parse_call(line, line_no, args);
      if (keyword != "INPUT" && keyword != "OUTPUT") {
        fail(line_no, "expected INPUT(x), OUTPUT(x) or 'x = GATE(...)'");
      }
      if (args.size() != 1) fail(line_no, keyword + " takes exactly one signal");
      if (keyword == "INPUT") {
        define(args[0], line_no);
        inputs.push_back(args[0]);
      } else {
        if (!output_at.emplace(args[0], line_no).second) {
          fail(line_no, "OUTPUT '" + args[0] + "' declared twice");
        }
        outputs.push_back(args[0]);
      }
      continue;
    }
    BenchLine g;
    g.line = line_no;
    g.output = trim(line.substr(0, eq));
    if (g.output.empty()) fail(line_no, "missing signal name before '='");
    g.op = parse_call(trim(line.substr(eq + 1)), line_no, args);
    g.args = args;
    if (g.op == "DFF") {
      if (g.args.size() != 1) fail(line_no, "DFF takes exactly one input");
    } else {
      g.type = gate_op(g.op, g.args.size(), line_no);
    }
    define(g.output, line_no);
    gates.push_back(std::move(g));
  }

  Network net;
  std::unordered_map<std::string, GateId> signal;
  for (const std::string& name : inputs) {
    signal[name] = net.add_gate(GateType::Input, name);
  }
  // DFF outputs are pseudo-PIs.
  for (const BenchLine& g : gates) {
    if (g.op == "DFF") signal[g.output] = net.add_gate(GateType::Input, g.output);
  }

  std::vector<const BenchLine*> pending;
  for (const BenchLine& g : gates) {
    if (g.op != "DFF") pending.push_back(&g);
  }
  auto build = [&](const BenchLine& g) -> bool {
    for (const std::string& a : g.args) {
      if (signal.find(a) == signal.end()) return false;
    }
    const GateId gid = net.add_gate(g.type);
    for (const std::string& a : g.args) net.add_fanin(gid, signal.at(a));
    signal[g.output] = gid;
    return true;
  };
  while (!pending.empty()) {
    std::vector<const BenchLine*> next;
    for (const BenchLine* g : pending) {
      if (!build(*g)) next.push_back(g);
    }
    if (next.size() == pending.size()) {
      fail(next.front()->line,
           "unresolved signal feeding " + next.front()->output +
               " (undefined or on a combinational loop)");
    }
    pending = std::move(next);
  }

  for (const std::string& name : outputs) {
    auto it = signal.find(name);
    if (it == signal.end()) fail(output_at.at(name), "undefined output " + name);
    const std::string po_name = net.find(name) == kNullGate ? name : name + "$po";
    const GateId po = net.add_gate(GateType::Output, po_name);
    net.add_fanin(po, it->second);
  }
  // DFF inputs are pseudo-POs.
  for (const BenchLine& g : gates) {
    if (g.op != "DFF") continue;
    auto it = signal.find(g.args[0]);
    if (it == signal.end()) fail(g.line, "undefined DFF input " + g.args[0]);
    const GateId po = net.add_gate(GateType::Output, g.output + "$next");
    net.add_fanin(po, it->second);
  }
  return net;
}

Network read_bench_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw InputError("cannot open bench file: " + path);
  return read_bench(in);
}

}  // namespace rapids
