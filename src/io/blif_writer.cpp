#include "io/blif_writer.hpp"

#include <fstream>
#include <ostream>
#include <sstream>

#include "util/assert.hpp"

namespace rapids {

namespace {

/// BLIF signal name of a gate's output net.
std::string signal_name(const Network& net, GateId g) { return net.name(g); }

void write_cover(const Network& net, GateId g, std::ostream& out) {
  const GateType t = net.type(g);
  const std::uint32_t n = net.fanin_count(g);
  out << ".names";
  for (std::uint32_t i = 0; i < n; ++i) out << ' ' << signal_name(net, net.fanin(g, i));
  out << ' ' << signal_name(net, g) << "\n";
  switch (t) {
    case GateType::Buf:
      out << "1 1\n";
      break;
    case GateType::Inv:
      out << "0 1\n";
      break;
    case GateType::And:
    case GateType::Nand: {
      for (std::uint32_t i = 0; i < n; ++i) out << '1';
      out << (t == GateType::And ? " 1\n" : " 0\n");
      break;
    }
    case GateType::Or: {
      for (std::uint32_t i = 0; i < n; ++i) {
        for (std::uint32_t j = 0; j < n; ++j) out << (i == j ? '1' : '-');
        out << " 1\n";
      }
      break;
    }
    case GateType::Nor: {
      for (std::uint32_t i = 0; i < n; ++i) out << '0';
      out << " 1\n";
      break;
    }
    case GateType::Xor:
    case GateType::Xnor: {
      // Enumerate minterms with the right parity (arity <= 4 in mapped
      // netlists keeps this tiny; cap for safety).
      RAPIDS_ASSERT_MSG(n <= 16, "XOR cover too wide for BLIF writer");
      const int want = t == GateType::Xor ? 1 : 0;
      for (std::uint32_t m = 0; m < (1u << n); ++m) {
        if ((__builtin_popcount(m) & 1) != want) continue;
        for (std::uint32_t i = 0; i < n; ++i) out << ((m >> i) & 1 ? '1' : '0');
        out << " 1\n";
      }
      break;
    }
    default:
      RAPIDS_ASSERT_MSG(false, "unexpected gate in write_cover");
  }
}

}  // namespace

void write_blif(const Network& net, std::ostream& out, const std::string& model_name) {
  out << ".model " << model_name << "\n";
  out << ".inputs";
  for (const GateId pi : net.primary_inputs()) out << ' ' << net.name(pi);
  out << "\n.outputs";
  for (const GateId po : net.primary_outputs()) out << ' ' << net.name(po);
  out << "\n";

  net.for_each_gate([&](GateId g) {
    switch (net.type(g)) {
      case GateType::Const0:
        out << ".names " << signal_name(net, g) << "\n";
        break;
      case GateType::Const1:
        out << ".names " << signal_name(net, g) << "\n1\n";
        break;
      case GateType::Input:
      case GateType::Output:
        break;
      default:
        write_cover(net, g, out);
        break;
    }
  });
  // Output markers alias their driver's signal.
  for (const GateId po : net.primary_outputs()) {
    out << ".names " << signal_name(net, net.po_driver(po)) << ' ' << net.name(po)
        << "\n1 1\n";
  }
  out << ".end\n";
}

void write_blif_file(const Network& net, const std::string& path,
                     const std::string& model_name) {
  std::ofstream out(path);
  if (!out) throw InputError("cannot write BLIF file: " + path);
  write_blif(net, out, model_name);
}

std::string blif_text(const Network& net, const std::string& model_name) {
  std::ostringstream out;
  write_blif(net, out, model_name);
  return out.str();
}

}  // namespace rapids
