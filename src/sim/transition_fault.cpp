#include "sim/transition_fault.hpp"

#include "sim/pattern_set.hpp"

namespace bistdse::sim {

using netlist::Netlist;
using netlist::NodeId;

std::vector<TransitionFault> TransitionFaults(const Netlist& netlist) {
  std::vector<TransitionFault> faults;
  faults.reserve(2 * netlist.NodeCount());
  for (NodeId id = 0; id < netlist.NodeCount(); ++id) {
    faults.push_back({id, true});
    faults.push_back({id, false});
  }
  return faults;
}

TransitionFaultSimulator::TransitionFaultSimulator(const Netlist& netlist)
    : netlist_(netlist), init_sim_(netlist), launch_sim_(netlist) {}

void TransitionFaultSimulator::SetPatternPairBlock(
    std::span<const PatternWord> v1, std::span<const PatternWord> v2) {
  init_sim_.Simulate(v1);
  launch_sim_.SetPatternBlock(v2);
}

PatternWord TransitionFaultSimulator::DetectWord(const TransitionFault& fault) {
  // Initialization: the net holds the pre-transition value under v1.
  const PatternWord init_value = init_sim_.ValueOf(fault.node);
  const PatternWord initialized =
      fault.slow_to_rise ? ~init_value : init_value;
  // Launch + observe: the late value behaves as the corresponding stuck-at
  // fault under v2 (slow-to-rise holds 0, slow-to-fall holds 1).
  const StuckAtFault equivalent{fault.node, -1, !fault.slow_to_rise};
  return initialized & launch_sim_.DetectWord(equivalent);
}

std::vector<PatternWord> TransitionFaultSimulator::LaunchOnCapture(
    const Netlist& netlist, std::span<const PatternWord> v1) {
  LogicSimulator simulator(netlist);
  simulator.Simulate(v1);
  std::vector<PatternWord> v2(v1.begin(), v1.end());
  const std::size_t num_pis = netlist.PrimaryInputs().size();
  const auto flops = netlist.Flops();
  for (std::size_t f = 0; f < flops.size(); ++f) {
    const NodeId d = netlist.FaninsOf(flops[f])[0];
    v2[num_pis + f] = simulator.ValueOf(d);
  }
  return v2;
}

double MeasureLocTransitionCoverage(const Netlist& netlist,
                                    std::span<const BitPattern> patterns) {
  const std::size_t width = netlist.CoreInputs().size();
  TransitionFaultSimulator tsim(netlist);
  std::vector<TransitionFault> remaining = TransitionFaults(netlist);
  const std::size_t total = remaining.size();

  for (std::size_t base = 0; base < patterns.size() && !remaining.empty();
       base += 64) {
    const std::size_t count = std::min<std::size_t>(64, patterns.size() - base);
    const auto v1 = PackPatternBlock(patterns, base, count, width);
    const auto v2 = TransitionFaultSimulator::LaunchOnCapture(netlist, v1);
    tsim.SetPatternPairBlock(v1, v2);
    const PatternWord mask = BlockMask(count);
    std::vector<TransitionFault> still;
    still.reserve(remaining.size());
    for (const TransitionFault& f : remaining) {
      if ((tsim.DetectWord(f) & mask) == 0) still.push_back(f);
    }
    remaining = std::move(still);
  }
  return total == 0
             ? 0.0
             : 1.0 - static_cast<double>(remaining.size()) /
                         static_cast<double>(total);
}

}  // namespace bistdse::sim
