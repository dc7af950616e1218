// Gate-level primitives for the bistdse netlist substrate.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace bistdse::netlist {

/// Index of a node (gate) inside a Netlist. Nodes and their output nets are
/// identified: node i drives net i.
using NodeId = std::uint32_t;

inline constexpr NodeId kInvalidNode = static_cast<NodeId>(-1);

/// Supported gate types. `Input` is a primary input, `Dff` a (scan) flip-flop
/// whose Q output acts as a pseudo-primary input in the full-scan test model
/// and whose single D fanin acts as a pseudo-primary output.
enum class GateType : std::uint8_t {
  Input,
  Buf,
  Not,
  And,
  Nand,
  Or,
  Nor,
  Xor,
  Xnor,
  Dff,
};

/// Human-readable gate type name (matches ISCAS .bench keywords).
std::string_view ToString(GateType type);

/// True for types whose output inverts the "natural" (AND/OR/XOR/wire) value.
constexpr bool IsInverting(GateType type) {
  return type == GateType::Not || type == GateType::Nand ||
         type == GateType::Nor || type == GateType::Xnor;
}

/// Controlling input value of the gate, or -1 if the type has none
/// (XOR/XNOR/BUF/NOT/Input/Dff).
constexpr int ControllingValue(GateType type) {
  switch (type) {
    case GateType::And:
    case GateType::Nand:
      return 0;
    case GateType::Or:
    case GateType::Nor:
      return 1;
    default:
      return -1;
  }
}

/// One gate: its type and fanin node ids. Fanout lists are derived and stored
/// by the Netlist.
struct Gate {
  GateType type = GateType::Buf;
  std::vector<NodeId> fanins;
  std::string name;  ///< Optional symbolic name (from .bench or the builder).
};

}  // namespace bistdse::netlist
