// Parallel-pattern logic simulation of the combinational core.
//
// Each node value is a WideWord<W>: W contiguous 64-bit lanes, bit k of
// lane l holding the node's logic value under pattern l*64+k of the current
// pattern block — so one sweep evaluates W*64 patterns. The per-node lanes
// are contiguous, which lets the per-gate lane loops auto-vectorize.
// Full-scan view: values are assigned to CoreInputs() (PIs + flop Qs) and
// observed at CoreOutputs() (POs + flop D nets).
//
// `LogicSimulator` (= LogicSimulatorT<1>) is the classic 64-way simulator;
// its results and API are unchanged. Wider instantiations (W in
// {2, 4, 8, 16}) are selected at runtime via DispatchBlockWidth.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "netlist/netlist.hpp"
#include "sim/wide_word.hpp"

namespace bistdse::sim {

/// Evaluates one gate from already-computed fanin words: the scalar
/// reference that tests check EvalGateWide against.
PatternWord EvalGate(netlist::GateType type, std::span<const PatternWord> fanins);

/// Wide-gate evaluation core over any fanin accessor `get(i) -> const
/// WideWord<W>&`; the lane loops inside each operator vectorize.
template <std::size_t W, typename Get>
WideWord<W> EvalGateWideImpl(netlist::GateType type, std::size_t num_fanins,
                             Get&& get) {
  using netlist::GateType;
  switch (type) {
    case GateType::Buf:
      return get(0);
    case GateType::Not:
      return ~get(0);
    case GateType::And:
    case GateType::Nand: {
      WideWord<W> v = WideWord<W>::Ones();
      for (std::size_t i = 0; i < num_fanins; ++i) v &= get(i);
      return type == GateType::And ? v : ~v;
    }
    case GateType::Or:
    case GateType::Nor: {
      WideWord<W> v = WideWord<W>::Zero();
      for (std::size_t i = 0; i < num_fanins; ++i) v |= get(i);
      return type == GateType::Or ? v : ~v;
    }
    case GateType::Xor:
    case GateType::Xnor: {
      WideWord<W> v = WideWord<W>::Zero();
      for (std::size_t i = 0; i < num_fanins; ++i) v ^= get(i);
      return type == GateType::Xor ? v : ~v;
    }
    case GateType::Input:
    case GateType::Dff:
      throw std::logic_error("EvalGateWide called on source node");
  }
  return WideWord<W>::Zero();
}

template <std::size_t W>
WideWord<W> EvalGateWide(netlist::GateType type,
                         std::span<const WideWord<W>> fanins) {
  return EvalGateWideImpl<W>(
      type, fanins.size(),
      [&](std::size_t i) -> const WideWord<W>& { return fanins[i]; });
}

/// Pointer-gather variant for hot loops: fanin blocks stay where they live
/// (good-machine or faulty values) instead of being copied into a scratch
/// vector, which matters once a block is W words wide.
template <std::size_t W>
WideWord<W> EvalGateWide(netlist::GateType type,
                         std::span<const WideWord<W>* const> fanins) {
  return EvalGateWideImpl<W>(
      type, fanins.size(),
      [&](std::size_t i) -> const WideWord<W>& { return *fanins[i]; });
}

template <std::size_t W>
class LogicSimulatorT {
 public:
  using Word = WideWord<W>;
  static constexpr std::size_t kLanes = W;

  /// The netlist must be finalized and must outlive the simulator.
  explicit LogicSimulatorT(const netlist::Netlist& netlist);

  /// Assigns the W words starting at `words[i * W]` (lane 0 first) to
  /// CoreInputs()[i] and evaluates the combinational core. `words.size()`
  /// must equal CoreInputs().size() * W. At W = 1 this is the classic
  /// one-word-per-input interface.
  void Simulate(std::span<const PatternWord> words);

  /// Lane-0 value word of any node after Simulate() — the full value at
  /// W = 1.
  PatternWord ValueOf(netlist::NodeId node) const {
    return values_[node].lane[0];
  }

  /// All W lanes of a node.
  const Word& BlockOf(netlist::NodeId node) const { return values_[node]; }
  std::span<const PatternWord> LanesOf(netlist::NodeId node) const {
    return {values_[node].lane, W};
  }

  /// Direct access to the full value vector (indexed by NodeId).
  std::span<const Word> Values() const { return values_; }

  /// Collects the response at CoreOutputs() in order: W contiguous words
  /// (lane 0 first) per output.
  std::vector<PatternWord> CoreOutputValues() const;

  /// Monotonic counter bumped by every Simulate() call. Consumers that cache
  /// derived per-block data (e.g. the fault simulator's stem-observability
  /// blocks — including worker clones sharing this good machine read-only)
  /// compare generations instead of being notified. Starts at 0 (no block
  /// loaded yet).
  std::uint64_t Generation() const { return generation_; }

  const netlist::Netlist& Circuit() const { return netlist_; }

 private:
  const netlist::Netlist& netlist_;
  std::vector<Word> values_;
  std::uint64_t generation_ = 0;
};

extern template class LogicSimulatorT<1>;
extern template class LogicSimulatorT<2>;
extern template class LogicSimulatorT<4>;
extern template class LogicSimulatorT<8>;
extern template class LogicSimulatorT<16>;

/// The classic 64-pattern simulator — unchanged semantics and layout.
using LogicSimulator = LogicSimulatorT<1>;

}  // namespace bistdse::sim
