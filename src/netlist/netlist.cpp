#include "netlist/netlist.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace bistdse::netlist {

std::string_view ToString(GateType type) {
  switch (type) {
    case GateType::Input: return "INPUT";
    case GateType::Buf: return "BUF";
    case GateType::Not: return "NOT";
    case GateType::And: return "AND";
    case GateType::Nand: return "NAND";
    case GateType::Or: return "OR";
    case GateType::Nor: return "NOR";
    case GateType::Xor: return "XOR";
    case GateType::Xnor: return "XNOR";
    case GateType::Dff: return "DFF";
  }
  return "?";
}

void Netlist::CheckArity(GateType type, std::size_t arity) const {
  switch (type) {
    case GateType::Input:
      if (arity != 0) throw std::invalid_argument("INPUT takes no fanins");
      break;
    case GateType::Buf:
    case GateType::Not:
    case GateType::Dff:
      if (arity != 1)
        throw std::invalid_argument(std::string(ToString(type)) +
                                    " requires exactly 1 fanin");
      break;
    case GateType::Xor:
    case GateType::Xnor:
      if (arity < 2)
        throw std::invalid_argument(std::string(ToString(type)) +
                                    " requires >= 2 fanins");
      break;
    default:
      if (arity < 1)
        throw std::invalid_argument(std::string(ToString(type)) +
                                    " requires >= 1 fanin");
      break;
  }
}

NodeId Netlist::AddNode(Gate gate) {
  if (finalized_) throw std::logic_error("netlist already finalized");
  const auto id = static_cast<NodeId>(gates_.size());
  gates_.push_back(std::move(gate));
  return id;
}

NodeId Netlist::AddInput(std::string name) {
  const NodeId id = AddNode(Gate{GateType::Input, {}, std::move(name)});
  primary_inputs_.push_back(id);
  return id;
}

NodeId Netlist::AddGate(GateType type, std::span<const NodeId> fanins,
                        std::string name) {
  CheckArity(type, fanins.size());
  if (type == GateType::Input) return AddInput(std::move(name));
  if (type == GateType::Dff) return AddFlop(fanins[0], std::move(name));
  for (NodeId f : fanins) {
    if (f >= gates_.size()) throw std::invalid_argument("fanin id out of range");
  }
  return AddNode(Gate{type, {fanins.begin(), fanins.end()}, std::move(name)});
}

NodeId Netlist::AddGate(GateType type, std::initializer_list<NodeId> fanins,
                        std::string name) {
  return AddGate(type, std::span<const NodeId>(fanins.begin(), fanins.size()),
                 std::move(name));
}

NodeId Netlist::AddFlop(NodeId d, std::string name) {
  if (d >= gates_.size()) throw std::invalid_argument("fanin id out of range");
  const NodeId id = AddNode(Gate{GateType::Dff, {d}, std::move(name)});
  flops_.push_back(id);
  return id;
}

void Netlist::RebindFlopInput(NodeId flop, NodeId d) {
  if (finalized_) throw std::logic_error("netlist already finalized");
  if (flop >= gates_.size() || gates_[flop].type != GateType::Dff)
    throw std::invalid_argument("not a flop");
  if (d >= gates_.size()) throw std::invalid_argument("fanin id out of range");
  gates_[flop].fanins[0] = d;
}

void Netlist::MarkOutput(NodeId node) {
  if (node >= gates_.size()) throw std::invalid_argument("node id out of range");
  primary_outputs_.push_back(node);
}

void Netlist::Finalize() {
  if (finalized_) throw std::logic_error("netlist already finalized");

  fanouts_.assign(gates_.size(), {});
  for (NodeId id = 0; id < gates_.size(); ++id) {
    for (NodeId f : gates_[id].fanins) fanouts_[f].push_back(id);
  }

  // Levelize the combinational core: Input and Dff nodes are sources
  // (level 0); a Dff's D fanin edge is a sequential edge and is ignored,
  // which breaks all cycles through flops. Remaining cycles are
  // combinational and rejected.
  levels_.assign(gates_.size(), 0);
  std::vector<std::uint32_t> pending(gates_.size(), 0);
  std::vector<NodeId> ready;
  for (NodeId id = 0; id < gates_.size(); ++id) {
    const Gate& g = gates_[id];
    if (g.type == GateType::Input || g.type == GateType::Dff) {
      ready.push_back(id);
    } else {
      pending[id] = static_cast<std::uint32_t>(g.fanins.size());
      if (pending[id] == 0) ready.push_back(id);  // constant-less; impossible
    }
  }

  topo_order_.clear();
  std::size_t processed = 0;
  while (processed < ready.size()) {
    const NodeId id = ready[processed++];
    const Gate& g = gates_[id];
    if (g.type != GateType::Input && g.type != GateType::Dff) {
      std::uint32_t lvl = 0;
      for (NodeId f : g.fanins) lvl = std::max(lvl, levels_[f] + 1);
      levels_[id] = lvl;
      max_level_ = std::max(max_level_, lvl);
      topo_order_.push_back(id);
    }
    for (NodeId out : fanouts_[id]) {
      if (gates_[out].type == GateType::Dff) continue;  // sequential edge
      if (--pending[out] == 0) ready.push_back(out);
    }
  }

  std::size_t combinational = 0;
  for (const Gate& g : gates_) {
    if (g.type != GateType::Input && g.type != GateType::Dff) ++combinational;
  }
  if (topo_order_.size() != combinational) {
    throw std::logic_error("combinational cycle detected in netlist");
  }

  core_inputs_.clear();
  core_inputs_.insert(core_inputs_.end(), primary_inputs_.begin(),
                      primary_inputs_.end());
  core_inputs_.insert(core_inputs_.end(), flops_.begin(), flops_.end());

  core_outputs_.clear();
  core_outputs_.insert(core_outputs_.end(), primary_outputs_.begin(),
                       primary_outputs_.end());
  for (NodeId flop : flops_) core_outputs_.push_back(gates_[flop].fanins[0]);

  finalized_ = true;
  structure_ = BuildStructuralInfo(*this);
}

std::uint64_t Netlist::ContentHash() const {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ULL;
  };
  mix(gates_.size());
  for (const Gate& g : gates_) {
    mix(static_cast<std::uint64_t>(g.type));
    mix(g.fanins.size());
    for (NodeId f : g.fanins) mix(f);
  }
  mix(primary_outputs_.size());
  for (NodeId out : primary_outputs_) mix(out);
  mix(flops_.size());
  for (NodeId flop : flops_) mix(flop);
  return h;
}

}  // namespace bistdse::netlist
