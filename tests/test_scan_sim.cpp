#include <gtest/gtest.h>

#include "bist/scan_sim.hpp"
#include "sim/logic_sim.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"

namespace bistdse::bist {
namespace {

/// Abstract full-scan response: LogicSimulator over the combinational core.
sim::BitPattern AbstractResponse(const netlist::Netlist& nl,
                                 const sim::BitPattern& pattern) {
  sim::LogicSimulator simulator(nl);
  std::vector<sim::PatternWord> words(pattern.size());
  for (std::size_t i = 0; i < pattern.size(); ++i) {
    words[i] = pattern[i] ? ~sim::PatternWord{0} : 0;
  }
  simulator.Simulate(words);
  sim::BitPattern response(nl.CoreOutputs().size());
  for (std::size_t o = 0; o < response.size(); ++o) {
    response[o] =
        static_cast<std::uint8_t>(simulator.ValueOf(nl.CoreOutputs()[o]) & 1);
  }
  return response;
}

TEST(ScanSim, MatchesFullScanAbstraction) {
  // The bit-level shift/capture emulation must reproduce the abstract
  // pattern semantics exactly — on every circuit, pattern, and chain count
  // (including counts that do not divide the flop count).
  for (std::uint64_t seed : {11, 22, 33}) {
    auto nl = bistdse::testing::MakeSmallRandom(seed, 200);
    util::SplitMix64 rng(seed * 31);
    for (std::uint32_t chains : {1u, 3u, 7u, 8u, 23u}) {
      ScanChainSimulator scan(nl, chains);
      for (int trial = 0; trial < 5; ++trial) {
        sim::BitPattern pattern(nl.CoreInputs().size());
        for (auto& b : pattern) b = rng.Chance(0.5);
        const auto observed = scan.ApplyAndObserve(pattern);
        const auto expected = AbstractResponse(nl, pattern);
        ASSERT_EQ(observed, expected)
            << "seed " << seed << " chains " << chains << " trial " << trial;
      }
    }
  }
}

TEST(ScanSim, BalancedChains) {
  auto nl = bistdse::testing::MakeSmallRandom(41, 150);  // 24 flops
  ScanChainSimulator scan(nl, 4);
  EXPECT_EQ(scan.ChainCount(), 4u);
  EXPECT_EQ(scan.MaxChainLength(), 6u);  // 24 / 4
  EXPECT_EQ(scan.CyclesPerPattern(), 7u);
  // Non-dividing chain count: 24 flops over 7 chains -> lengths 3/4, no
  // empty chain (regression: empty chains crashed the shift loop).
  ScanChainSimulator uneven(nl, 7);
  EXPECT_EQ(uneven.ChainCount(), 7u);
  EXPECT_EQ(uneven.MaxChainLength(), 4u);
}

TEST(ScanSim, MoreChainsThanFlopsClamps) {
  auto nl = bistdse::testing::MakeSmallRandom(43, 120);  // 24 flops
  ScanChainSimulator scan(nl, 100);
  EXPECT_EQ(scan.ChainCount(), 24u);
  EXPECT_EQ(scan.MaxChainLength(), 1u);
  EXPECT_EQ(scan.CyclesPerPattern(), 2u);
}

TEST(ScanSim, CycleAccountingMatchesTimingModel) {
  // CyclesElapsed after N patterns must equal N * CyclesPerPattern — the
  // quantity the session runtime model l(b) is built on (shift-out cycles
  // overlap the next shift-in and are not double counted).
  auto nl = bistdse::testing::MakeSmallRandom(47, 150);
  ScanChainSimulator scan(nl, 4);
  util::SplitMix64 rng(1);
  constexpr int kPatterns = 10;
  for (int i = 0; i < kPatterns; ++i) {
    sim::BitPattern pattern(nl.CoreInputs().size());
    for (auto& b : pattern) b = rng.Chance(0.5);
    scan.ApplyAndObserve(pattern);
  }
  EXPECT_EQ(scan.CyclesElapsed(),
            static_cast<std::uint64_t>(kPatterns) * scan.CyclesPerPattern());
}

TEST(ScanSim, RejectsDegenerateInputs) {
  auto nl = bistdse::testing::MakeSmallRandom(49, 120);
  EXPECT_THROW(ScanChainSimulator(nl, 0), std::invalid_argument);
  ScanChainSimulator scan(nl, 4);
  sim::BitPattern wrong(3, 0);
  EXPECT_THROW(scan.ApplyAndObserve(wrong), std::invalid_argument);
}

}  // namespace
}  // namespace bistdse::bist
