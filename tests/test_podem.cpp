#include <gtest/gtest.h>

#include "atpg/podem.hpp"
#include "sim/fault_sim.hpp"
#include "sim/pattern_set.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"

namespace bistdse::atpg {
namespace {

using netlist::GateType;
using netlist::Netlist;
using netlist::NodeId;
using sim::CollapsedFaults;
using sim::FaultSimulator;
using sim::PatternWord;
using sim::StuckAtFault;

// Checks with the (independently tested) fault simulator that `cube`,
// arbitrarily filled with zeros, detects `fault`.
bool CubeDetects(const Netlist& nl, const TestCube& cube,
                 const StuckAtFault& fault) {
  FaultSimulator fsim(nl);
  std::vector<PatternWord> words(cube.bits.size());
  for (std::size_t i = 0; i < cube.bits.size(); ++i) {
    words[i] = cube.bits[i] == Value3::One ? ~PatternWord{0} : 0;
  }
  fsim.SetPatternBlock(words);
  return (fsim.DetectWord(fault) & 1) != 0;
}

TEST(Value3, KleeneTables) {
  EXPECT_EQ(And3(Value3::One, Value3::X), Value3::X);
  EXPECT_EQ(And3(Value3::Zero, Value3::X), Value3::Zero);
  EXPECT_EQ(Or3(Value3::One, Value3::X), Value3::One);
  EXPECT_EQ(Or3(Value3::Zero, Value3::X), Value3::X);
  EXPECT_EQ(Xor3(Value3::One, Value3::X), Value3::X);
  EXPECT_EQ(Not3(Value3::X), Value3::X);
  EXPECT_EQ(Not3(Value3::Zero), Value3::One);
}

TEST(Podem, GeneratesTestsForAllC17Faults) {
  auto nl = testing::MakeC17();
  Podem podem(nl);
  for (const auto& f : CollapsedFaults(nl)) {
    const auto result = podem.Generate(f);
    ASSERT_EQ(result.outcome, PodemOutcome::Detected)
        << sim::ToString(nl, f);
    EXPECT_TRUE(CubeDetects(nl, result.cube, f)) << sim::ToString(nl, f);
  }
}

TEST(Podem, ProvesRedundantFaultUntestable) {
  // y = OR(a, NOT(a)): SA1 at y is undetectable.
  Netlist nl;
  const NodeId a = nl.AddInput("a");
  const NodeId n = nl.AddGate(GateType::Not, {a});
  const NodeId y = nl.AddGate(GateType::Or, {a, n});
  nl.MarkOutput(y);
  nl.Finalize();
  Podem podem(nl);
  EXPECT_EQ(podem.Generate({y, -1, true}).outcome, PodemOutcome::Untestable);
  EXPECT_EQ(podem.Generate({y, -1, false}).outcome, PodemOutcome::Detected);
}

TEST(Podem, HandlesFlopBoundaries) {
  auto nl = netlist::ParseBenchString(bistdse::testing::kTinySeq);
  Podem podem(nl);
  // Fault on the AND gate output (feeds d1/PPO).
  const NodeId d1 = FindByName(nl, "d1");
  auto result = podem.Generate({d1, -1, false});
  ASSERT_EQ(result.outcome, PodemOutcome::Detected);
  EXPECT_TRUE(CubeDetects(nl, result.cube, {d1, -1, false}));
}

TEST(Podem, FlopDBranchFault) {
  // Give the flop-D net fanout > 1 so the branch fault is collapsed-distinct.
  Netlist nl;
  const NodeId a = nl.AddInput("a");
  const NodeId b = nl.AddInput("b");
  const NodeId g = nl.AddGate(GateType::And, {a, b});
  const NodeId q = nl.AddFlop(g);
  const NodeId y = nl.AddGate(GateType::Not, {g});
  nl.MarkOutput(y);
  nl.Finalize();
  (void)q;
  Podem podem(nl);
  const StuckAtFault f{q, 0, false};  // D branch stuck-at-0
  auto result = podem.Generate(f);
  ASSERT_EQ(result.outcome, PodemOutcome::Detected);
  EXPECT_TRUE(CubeDetects(nl, result.cube, f));
}

TEST(Podem, AgreesWithFaultSimOnRandomCircuits) {
  // Every PODEM "Detected" must be confirmed by fault simulation; every
  // "Untestable" must resist 256 random patterns (weak but meaningful check).
  for (std::uint64_t seed : {21, 22}) {
    auto nl = bistdse::testing::MakeSmallRandom(seed, 200);
    Podem podem(nl, 500);
    FaultSimulator fsim(nl);
    auto faults = CollapsedFaults(nl);

    std::size_t detected = 0, untestable = 0, aborted = 0;
    for (std::size_t fi = 0; fi < faults.size(); fi += 5) {
      const auto result = podem.Generate(faults[fi]);
      if (result.outcome == PodemOutcome::Detected) {
        ++detected;
        EXPECT_TRUE(CubeDetects(nl, result.cube, faults[fi]))
            << sim::ToString(nl, faults[fi]);
      } else if (result.outcome == PodemOutcome::Untestable) {
        ++untestable;
        util::SplitMix64 rng(seed);
        const std::size_t width = nl.CoreInputs().size();
        std::vector<PatternWord> words(width);
        for (int block = 0; block < 4; ++block) {
          for (auto& w : words) w = rng();
          fsim.SetPatternBlock(words);
          EXPECT_EQ(fsim.DetectWord(faults[fi]), 0u)
              << sim::ToString(nl, faults[fi])
              << " claimed untestable but detected randomly";
        }
      } else {
        ++aborted;
      }
    }
    // The vast majority of faults in a random circuit are testable and easy.
    EXPECT_GT(detected, untestable + aborted);
  }
}

TEST(Podem, BacktrackLimitProducesAbortNotHang) {
  auto nl = bistdse::testing::MakeSmallRandom(31, 400);
  Podem podem(nl, 1);  // absurdly small limit
  auto faults = CollapsedFaults(nl);
  int outcomes[3] = {0, 0, 0};
  for (std::size_t fi = 0; fi < faults.size(); fi += 9) {
    ++outcomes[static_cast<int>(podem.Generate(faults[fi]).outcome)];
  }
  // With limit 1 some faults must still succeed (easy ones need no
  // backtracking at all).
  EXPECT_GT(outcomes[0], 0);
}

}  // namespace
}  // namespace bistdse::atpg
