#include <gtest/gtest.h>

#include "bist/pattern_source.hpp"
#include "netlist/netlist.hpp"
#include "sim/transition_fault.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"

namespace bistdse::sim {
namespace {

using netlist::GateType;
using netlist::Netlist;
using netlist::NodeId;

TEST(TransitionFault, HandComputedBufferChain) {
  // a -> BUF -> y with one flop for LOC sequencing: use a purely
  // combinational circuit and explicit pairs instead.
  Netlist nl;
  const NodeId a = nl.AddInput("a");
  const NodeId y = nl.AddGate(GateType::Buf, {a}, "y");
  nl.MarkOutput(y);
  nl.Finalize();

  TransitionFaultSimulator tsim(nl);
  // Pair lane 0: a 0->1 (rising), lane 1: a 1->0 (falling), lane 2: a 0->0.
  const PatternWord v1[] = {0b010};
  const PatternWord v2[] = {0b001};
  tsim.SetPatternPairBlock(v1, v2);
  // Slow-to-rise at y: needs init 0, launch 1 -> lane 0 only.
  EXPECT_EQ(tsim.DetectWord({y, true}) & 0b111, 0b001u);
  // Slow-to-fall at y: init 1, launch 0 -> lane 1 only.
  EXPECT_EQ(tsim.DetectWord({y, false}) & 0b111, 0b010u);
}

TEST(TransitionFault, RequiresBothInitializationAndPropagation) {
  // y = AND(a, b): slow-to-rise at a needs a: 0->1 AND b=1 in v2.
  Netlist nl;
  const NodeId a = nl.AddInput("a");
  const NodeId b = nl.AddInput("b");
  const NodeId y = nl.AddGate(GateType::And, {a, b});
  nl.MarkOutput(y);
  nl.Finalize();
  TransitionFaultSimulator tsim(nl);
  // lanes:        0: a 0->1, b=1 (detect)   1: a 0->1, b=0 (blocked)
  //               2: a 1->1, b=1 (no launch)
  const PatternWord v1[] = {0b100, 0b111};
  const PatternWord v2[] = {0b111, 0b101};
  tsim.SetPatternPairBlock(v1, v2);
  EXPECT_EQ(tsim.DetectWord({a, true}) & 0b111, 0b001u);
}

TEST(TransitionFault, LaunchOnCaptureUsesFunctionalNextState) {
  auto nl = netlist::ParseBenchString(bistdse::testing::kTinySeq);
  util::SplitMix64 rng(3);
  std::vector<PatternWord> v1(nl.CoreInputs().size());
  for (auto& w : v1) w = rng();
  const auto v2 = TransitionFaultSimulator::LaunchOnCapture(nl, v1);
  // PIs held.
  EXPECT_EQ(v2[0], v1[0]);
  EXPECT_EQ(v2[1], v1[1]);
  // Flop parts equal the captured D values.
  LogicSimulator sim(nl);
  sim.Simulate(v1);
  const auto d0 = nl.FaninsOf(nl.Flops()[0])[0];
  const auto d1 = nl.FaninsOf(nl.Flops()[1])[0];
  EXPECT_EQ(v2[2], sim.ValueOf(d0));
  EXPECT_EQ(v2[3], sim.ValueOf(d1));
}

TEST(TransitionFault, LocCoverageBelowStuckAtCoverage) {
  // The classic relation: with the same pseudo-random budget, LOC TDF
  // coverage trails stuck-at coverage (launch constraints cost patterns).
  auto nl = bistdse::testing::MakeSmallRandom(21, 300);
  const std::size_t width = nl.CoreInputs().size();

  bist::StumpsConfig config;
  bist::PatternSource source(config, width);
  std::vector<BitPattern> patterns;
  for (int i = 0; i < 512; ++i) patterns.push_back(source.Next());

  const double tdf = MeasureLocTransitionCoverage(nl, patterns);
  EXPECT_GT(tdf, 0.4);
  EXPECT_LT(tdf, 1.0);

  // Stuck-at coverage over the same patterns.
  FaultSimulator fsim(nl);
  auto remaining = CollapsedFaults(nl);
  const std::size_t total = remaining.size();
  for (std::size_t base = 0; base < patterns.size(); base += 64) {
    const auto words = PackPatternBlock(patterns, base, 64, width);
    fsim.SetPatternBlock(words);
    std::vector<StuckAtFault> still;
    for (const auto& f : remaining) {
      if (!fsim.DetectWord(f)) still.push_back(f);
    }
    remaining = std::move(still);
  }
  const double saf = 1.0 - static_cast<double>(remaining.size()) / total;
  EXPECT_GT(saf, tdf);
}

TEST(TransitionFault, UniverseAndNames) {
  auto nl = bistdse::testing::MakeC17();
  const auto faults = TransitionFaults(nl);
  EXPECT_EQ(faults.size(), 2 * nl.NodeCount());
}

}  // namespace
}  // namespace bistdse::sim
