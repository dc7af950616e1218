// Parametric generators of well-known combinational blocks.
//
// Unlike the random generator, these circuits have an arithmetic golden
// model, so the test suite can verify the entire simulation stack
// bit-for-bit (e.g. the ripple-carry adder against uint64 addition).
#pragma once

#include <cstdint>
#include <vector>

#include "netlist/netlist.hpp"

namespace bistdse::netlist {

/// In/out port bundles of a generated block.
struct BlockPorts {
  std::vector<NodeId> a;    ///< First operand (LSB first).
  std::vector<NodeId> b;    ///< Second operand (LSB first).
  std::vector<NodeId> out;  ///< Result (LSB first).
  NodeId carry_in = kInvalidNode;
  NodeId carry_out = kInvalidNode;
};

/// n-bit ripple-carry adder: out = a + b + cin, carry_out = overflow.
/// Creates 2n+1 primary inputs; marks sum bits and carry-out as outputs.
BlockPorts BuildRippleCarryAdder(Netlist& netlist, std::uint32_t bits);

/// n x n array multiplier: out (2n bits) = a * b.
BlockPorts BuildArrayMultiplier(Netlist& netlist, std::uint32_t bits);

/// n-bit equality comparator: out[0] = (a == b).
BlockPorts BuildEqualityComparator(Netlist& netlist, std::uint32_t bits);

/// Parity tree: out[0] = XOR of n fresh inputs (in `a`).
BlockPorts BuildParityTree(Netlist& netlist, std::uint32_t bits);

/// 2^sel_bits : 1 multiplexer; `a` holds data inputs, `b` the select lines.
BlockPorts BuildMuxTree(Netlist& netlist, std::uint32_t sel_bits);

}  // namespace bistdse::netlist
