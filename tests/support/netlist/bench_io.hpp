// Reader/writer for the ISCAS-85/89 ".bench" netlist format.
//
// Supported grammar (comments start with '#'):
//   INPUT(name)
//   OUTPUT(name)
//   name = GATE(op1, op2, ...)     GATE in {BUF(F), NOT, AND, NAND, OR,
//                                           NOR, XOR, XNOR, DFF}
//
// OUTPUT lines may precede the definition of the referenced net.
#pragma once

#include <iosfwd>
#include <string>

#include "netlist/netlist.hpp"

namespace bistdse::netlist {

/// Parses a .bench description. Throws std::runtime_error with a line number
/// on syntax errors, undefined nets, or duplicate definitions. The returned
/// netlist is finalized.
Netlist ParseBench(std::istream& in);
Netlist ParseBenchString(const std::string& text);

/// Writes `netlist` in .bench format. Unnamed nodes get generated names
/// ("n<id>").
void WriteBench(const Netlist& netlist, std::ostream& out);
std::string WriteBenchString(const Netlist& netlist);

/// The first node named `name`, or kInvalidNode if there is none.
NodeId FindByName(const Netlist& netlist, const std::string& name);

}  // namespace bistdse::netlist
