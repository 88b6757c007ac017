// BLIF writer: emits any Network (mapped or not) as flat .names logic.
// Sequential history is not reconstructed — pseudo-PI/PO boundaries from
// cut latches are written as ordinary inputs/outputs.
#pragma once

#include <iosfwd>
#include <string>

#include "netlist/network.hpp"

namespace rapids {

void write_blif(const Network& net, std::ostream& out,
                const std::string& model_name = "rapids");
void write_blif_file(const Network& net, const std::string& path,
                     const std::string& model_name = "rapids");
/// The text write_blif emits: comparing two of these compares netlists.
std::string blif_text(const Network& net, const std::string& model_name = "rapids");

}  // namespace rapids
