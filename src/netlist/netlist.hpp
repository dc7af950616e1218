// Netlist: an in-memory gate-level circuit with full-scan test view.
//
// The netlist is a DAG of gates. In the full-scan test model used by the BIST
// engine, every Dff is a scan element: its Q output is a pseudo-primary input
// (PPI) and its D input a pseudo-primary output (PPO). The combinational core
// between (PIs + PPIs) and (POs + PPOs) is what logic/fault simulation and
// ATPG operate on.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "netlist/gate.hpp"
#include "netlist/structure.hpp"

namespace bistdse::netlist {

class Netlist {
 public:
  // --- construction -------------------------------------------------------

  /// Adds a primary input; returns its node id.
  NodeId AddInput(std::string name = {});

  /// Adds a gate of `type` driven by `fanins`; returns its node id.
  /// Fanins may refer to any previously added node. Throws
  /// std::invalid_argument on arity violations (e.g. NOT with 2 fanins).
  NodeId AddGate(GateType type, std::span<const NodeId> fanins,
                 std::string name = {});
  NodeId AddGate(GateType type, std::initializer_list<NodeId> fanins,
                 std::string name = {});

  /// Adds a scan flip-flop with data input `d`; returns its node id (= Q net).
  NodeId AddFlop(NodeId d, std::string name = {});

  /// Marks an existing node as primary output.
  void MarkOutput(NodeId node);

  /// Reconnects the D input of an existing flop. Only allowed before
  /// Finalize(); used by parsers that see a flop before its fanin cone.
  void RebindFlopInput(NodeId flop, NodeId d);

  /// Finalizes the netlist: derives fanout lists, levelizes the combinational
  /// core, checks structural sanity. Must be called once after construction
  /// and before any query below. Throws std::logic_error on combinational
  /// cycles.
  void Finalize();

  // --- structure queries ---------------------------------------------------

  std::size_t NodeCount() const { return gates_.size(); }
  const Gate& GetGate(NodeId id) const { return gates_[id]; }
  GateType TypeOf(NodeId id) const { return gates_[id].type; }
  std::span<const NodeId> FaninsOf(NodeId id) const { return gates_[id].fanins; }
  std::span<const NodeId> FanoutsOf(NodeId id) const { return fanouts_[id]; }
  std::size_t FanoutCount(NodeId id) const { return fanouts_[id].size(); }

  std::span<const NodeId> PrimaryInputs() const { return primary_inputs_; }
  std::span<const NodeId> PrimaryOutputs() const { return primary_outputs_; }
  std::span<const NodeId> Flops() const { return flops_; }

  /// All circuit inputs of the combinational core: PIs followed by flop
  /// outputs (PPIs). Order is stable and defines the test-pattern layout.
  std::span<const NodeId> CoreInputs() const { return core_inputs_; }

  /// All observation points of the combinational core: POs followed by flop
  /// D-fanins (PPOs). Order is stable and defines the response layout.
  std::span<const NodeId> CoreOutputs() const { return core_outputs_; }

  /// Nodes of the combinational core in topological (levelized) order.
  /// Inputs and flops are not included; evaluating nodes in this order after
  /// assigning PI/PPI values yields a consistent simulation.
  std::span<const NodeId> TopologicalOrder() const { return topo_order_; }

  /// Topological level of a node (inputs/flops are level 0).
  std::uint32_t LevelOf(NodeId id) const { return levels_[id]; }
  std::uint32_t MaxLevel() const { return max_level_; }

  bool IsFinalized() const { return finalized_; }

  /// Number of combinational gates (excludes Input and Dff nodes).
  std::size_t CombinationalGateCount() const { return topo_order_.size(); }

  /// Structural shortcut metadata (FFR stems, immediate post-dominators),
  /// derived once in Finalize() and cached like the levelization.
  const StructuralInfo& Structure() const { return structure_; }

  /// FNV-1a content hash over the finalized structure (gate types, fanins,
  /// outputs, flop order) — names excluded, so structurally identical
  /// netlists hash equal. Simulation results are pure functions of this
  /// structure, which is what lets campaign memos and serialized fault
  /// dictionaries key on it.
  std::uint64_t ContentHash() const;

 private:
  NodeId AddNode(Gate gate);
  void CheckArity(GateType type, std::size_t arity) const;

  std::vector<Gate> gates_;
  std::vector<std::vector<NodeId>> fanouts_;
  std::vector<NodeId> primary_inputs_;
  std::vector<NodeId> primary_outputs_;
  std::vector<NodeId> flops_;
  std::vector<NodeId> core_inputs_;
  std::vector<NodeId> core_outputs_;
  std::vector<NodeId> topo_order_;
  std::vector<std::uint32_t> levels_;
  StructuralInfo structure_;
  std::uint32_t max_level_ = 0;
  bool finalized_ = false;
};

}  // namespace bistdse::netlist
