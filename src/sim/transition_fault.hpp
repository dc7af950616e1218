// Transition-delay fault (TDF) model under launch-on-capture (LOC) testing.
//
// The paper notes its diagnosis flow "is not limited to this [stuck-at]
// fault model"; this module provides the canonical second model. A
// slow-to-rise (slow-to-fall) fault at a net is detected by a pattern pair
// (v1, v2) iff v1 initializes the net to 0 (1), v2 launches the opposite
// value, and the late value is observed — equivalently, the corresponding
// stuck-at fault is detected under v2. Under LOC, v2 is not a free scan
// load but the functional capture response of v1.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "sim/fault_sim.hpp"
#include "sim/pattern_set.hpp"

namespace bistdse::sim {

struct TransitionFault {
  netlist::NodeId node = netlist::kInvalidNode;
  bool slow_to_rise = false;  ///< false: slow-to-fall.

  friend bool operator==(const TransitionFault&, const TransitionFault&) =
      default;
};

/// Both polarities at every node output (stem TDFs).
std::vector<TransitionFault> TransitionFaults(const netlist::Netlist& netlist);

class TransitionFaultSimulator {
 public:
  explicit TransitionFaultSimulator(const netlist::Netlist& netlist);

  /// Loads a block of initialization patterns v1 and their launch patterns
  /// v2 (words aligned with CoreInputs()).
  void SetPatternPairBlock(std::span<const PatternWord> v1,
                           std::span<const PatternWord> v2);

  /// Detection word of `fault` under the current pair block.
  PatternWord DetectWord(const TransitionFault& fault);

  /// Derives the launch-on-capture successor of `v1`: primary inputs hold
  /// their values, flops take their captured (functional) next state.
  static std::vector<PatternWord> LaunchOnCapture(
      const netlist::Netlist& netlist, std::span<const PatternWord> v1);

 private:
  const netlist::Netlist& netlist_;
  LogicSimulator init_sim_;    // values under v1
  FaultSimulator launch_sim_;  // good values + stuck-at detection under v2
};

/// LOC transition coverage of `num_pairs` pseudo-random pattern pairs
/// (v1 drawn from `patterns`, v2 = capture successor), with fault dropping.
/// Returns detected / total over the collapsed-stem TDF universe.
double MeasureLocTransitionCoverage(const netlist::Netlist& netlist,
                                    std::span<const BitPattern> patterns);

}  // namespace bistdse::sim
