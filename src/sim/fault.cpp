#include "sim/fault.hpp"

namespace bistdse::sim {

using netlist::GateType;
using netlist::Netlist;
using netlist::NodeId;

std::string ToString(const Netlist& netlist, const StuckAtFault& fault) {
  const std::string& raw = netlist.GetGate(fault.node).name;
  std::string name = raw;
  if (raw.empty()) {
    name.push_back('n');
    name += std::to_string(fault.node);
  }
  if (!fault.IsStem()) {
    name += ".in";
    name += std::to_string(fault.fanin_index);
  }
  name += fault.stuck_value ? "/SA1" : "/SA0";
  return name;
}

std::vector<StuckAtFault> CollapsedFaults(const Netlist& netlist) {
  std::vector<StuckAtFault> faults;
  for (NodeId id = 0; id < netlist.NodeCount(); ++id) {
    const GateType type = netlist.TypeOf(id);

    // Stem faults at every node output. A node with no fanout and no PO
    // marking is unobservable; keep it anyway (it counts as undetectable,
    // exactly like dangling logic in a real design).
    faults.push_back({id, -1, false});
    faults.push_back({id, -1, true});

    if (type == GateType::Input) continue;

    const auto fanins = netlist.FaninsOf(id);
    const int ctrl = netlist::ControllingValue(type);
    for (std::size_t pin = 0; pin < fanins.size(); ++pin) {
      if (netlist.FanoutCount(fanins[pin]) <= 1) continue;  // wire equivalence
      switch (type) {
        case GateType::Buf:
        case GateType::Not:
          // Branch fault equivalent to this gate's stem fault.
          break;
        case GateType::And:
        case GateType::Nand:
        case GateType::Or:
        case GateType::Nor:
          // Stuck-at-controlling is equivalent to the gate's stem fault;
          // keep only stuck-at-non-controlling.
          faults.push_back({id, static_cast<std::int8_t>(pin), ctrl == 0});
          break;
        case GateType::Xor:
        case GateType::Xnor:
        case GateType::Dff:
          faults.push_back({id, static_cast<std::int8_t>(pin), false});
          faults.push_back({id, static_cast<std::int8_t>(pin), true});
          break;
        case GateType::Input:
          break;
      }
    }
  }
  return faults;
}

std::vector<StuckAtFault> AllFaults(const Netlist& netlist) {
  std::vector<StuckAtFault> faults;
  for (NodeId id = 0; id < netlist.NodeCount(); ++id) {
    faults.push_back({id, -1, false});
    faults.push_back({id, -1, true});
    if (netlist.TypeOf(id) == GateType::Input) continue;
    const auto fanins = netlist.FaninsOf(id);
    for (std::size_t pin = 0; pin < fanins.size(); ++pin) {
      faults.push_back({id, static_cast<std::int8_t>(pin), false});
      faults.push_back({id, static_cast<std::int8_t>(pin), true});
    }
  }
  return faults;
}

}  // namespace bistdse::sim
