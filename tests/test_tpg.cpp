#include <gtest/gtest.h>

#include "atpg/tpg.hpp"
#include "sim/fault_sim.hpp"
#include "sim/pattern_set.hpp"
#include "test_helpers.hpp"

namespace bistdse::atpg {
namespace {

using sim::BitPattern;
using sim::CollapsedFaults;
using sim::FaultSimulator;
using sim::PatternWord;
using sim::StuckAtFault;

// Counts how many of `faults` are detected by `patterns`.
std::size_t CountDetected(const netlist::Netlist& nl,
                          std::span<const BitPattern> patterns,
                          std::span<const StuckAtFault> faults) {
  FaultSimulator fsim(nl);
  const std::size_t width = nl.CoreInputs().size();
  std::vector<StuckAtFault> remaining(faults.begin(), faults.end());
  for (std::size_t base = 0; base < patterns.size() && !remaining.empty();
       base += 64) {
    const std::size_t count = std::min<std::size_t>(64, patterns.size() - base);
    const auto words = sim::PackPatternBlock(patterns, base, count, width);
    fsim.SetPatternBlock(words);
    const PatternWord mask = sim::BlockMask(count);
    std::vector<StuckAtFault> still;
    for (const auto& f : remaining) {
      if ((fsim.DetectWord(f) & mask) == 0) still.push_back(f);
    }
    remaining = std::move(still);
  }
  return faults.size() - remaining.size();
}

TEST(Tpg, CoversAllTestableC17Faults) {
  auto nl = testing::MakeC17();
  auto faults = CollapsedFaults(nl);
  auto result = GenerateDeterministicPatterns(nl, faults);
  EXPECT_EQ(result.untestable, 0u);
  EXPECT_EQ(result.aborted, 0u);
  EXPECT_EQ(result.detected, faults.size());
  EXPECT_EQ(CountDetected(nl, result.patterns, faults), faults.size());
  // c17 is fully testable with very few patterns.
  EXPECT_LE(result.patterns.size(), 10u);
}

TEST(Tpg, CompactionPreservesCoverage) {
  auto nl = bistdse::testing::MakeSmallRandom(41, 250);
  auto faults = CollapsedFaults(nl);

  DeterministicTpgOptions raw;
  raw.reverse_compaction = false;
  auto uncompacted = GenerateDeterministicPatterns(nl, faults, raw);

  auto compacted =
      CompactPatterns(nl, uncompacted.patterns, faults);
  EXPECT_LE(compacted.size(), uncompacted.patterns.size());
  EXPECT_EQ(CountDetected(nl, compacted, faults),
            CountDetected(nl, uncompacted.patterns, faults));
}

TEST(Tpg, CompactionDefaultEnabled) {
  auto nl = bistdse::testing::MakeSmallRandom(43, 250);
  auto faults = CollapsedFaults(nl);

  DeterministicTpgOptions with;
  with.reverse_compaction = true;
  DeterministicTpgOptions without;
  without.reverse_compaction = false;
  const auto a = GenerateDeterministicPatterns(nl, faults, with);
  const auto b = GenerateDeterministicPatterns(nl, faults, without);
  EXPECT_LE(a.patterns.size(), b.patterns.size());
  EXPECT_EQ(CountDetected(nl, a.patterns, faults),
            CountDetected(nl, b.patterns, faults));
  EXPECT_EQ(a.cubes.size(), a.patterns.size());
}

TEST(Tpg, CubesAlignWithPatterns) {
  auto nl = testing::MakeC17();
  auto faults = CollapsedFaults(nl);
  auto result = GenerateDeterministicPatterns(nl, faults);
  ASSERT_EQ(result.cubes.size(), result.patterns.size());
  for (std::size_t p = 0; p < result.cubes.size(); ++p) {
    ASSERT_EQ(result.cubes[p].bits.size(), result.patterns[p].size());
    for (std::size_t i = 0; i < result.cubes[p].bits.size(); ++i) {
      if (result.cubes[p].bits[i] == Value3::X) continue;
      EXPECT_EQ(result.patterns[p][i],
                result.cubes[p].bits[i] == Value3::One ? 1 : 0)
          << "fill must honor care bits";
    }
  }
}

TEST(Tpg, DeterministicForFixedSeed) {
  auto nl = bistdse::testing::MakeSmallRandom(47, 200);
  auto faults = CollapsedFaults(nl);
  DeterministicTpgOptions opts;
  opts.seed = 5;
  auto a = GenerateDeterministicPatterns(nl, faults, opts);
  auto b = GenerateDeterministicPatterns(nl, faults, opts);
  ASSERT_EQ(a.patterns.size(), b.patterns.size());
  EXPECT_EQ(a.patterns, b.patterns);
  EXPECT_EQ(a.total_care_bits, b.total_care_bits);
}

TEST(Tpg, EmptyTargetsYieldNoPatterns) {
  auto nl = testing::MakeC17();
  auto result = GenerateDeterministicPatterns(nl, {});
  EXPECT_TRUE(result.patterns.empty());
  EXPECT_EQ(result.detected, 0u);
}

}  // namespace
}  // namespace bistdse::atpg
