#include <gtest/gtest.h>

#include <cmath>

#include "casestudy/casestudy.hpp"
#include "test_helpers.hpp"

namespace bistdse::casestudy {
namespace {

TEST(TableI, HasAllThirtySixProfiles) {
  const auto profiles = PaperTableI();
  ASSERT_EQ(profiles.size(), 36u);
  for (std::size_t i = 0; i < profiles.size(); ++i) {
    EXPECT_EQ(profiles[i].profile_number, i + 1);
    EXPECT_GT(profiles[i].fault_coverage_percent, 95.0);
    EXPECT_LE(profiles[i].fault_coverage_percent, 100.0);
    EXPECT_GT(profiles[i].runtime_ms, 0.0);
    EXPECT_GT(profiles[i].data_bytes, 0u);
  }
  // Spot-check rows 1, 4, 33 against the paper.
  EXPECT_EQ(profiles[0].num_random_patterns, 500u);
  EXPECT_DOUBLE_EQ(profiles[0].fault_coverage_percent, 99.83);
  EXPECT_EQ(profiles[0].data_bytes, 2399185u);
  EXPECT_EQ(profiles[3].data_bytes, 455061u);
  EXPECT_DOUBLE_EQ(profiles[32].runtime_ms, 965.35);
}

TEST(TableI, ScaledRejectsUnrepresentableSizes) {
  const auto quarter = ScaledTableI(0.25, 4);
  ASSERT_EQ(quarter.size(), 4u);
  EXPECT_EQ(quarter[0].data_bytes, 2399185u / 4);
  for (const auto& p : ScaledTableI(0.0)) EXPECT_EQ(p.data_bytes, 1u);
  EXPECT_THROW(ScaledTableI(-1.0), std::invalid_argument);
  EXPECT_THROW(ScaledTableI(1e300), std::invalid_argument);
  EXPECT_THROW(ScaledTableI(std::nan("")), std::invalid_argument);
}

TEST(TableI, RuntimeTracksPatternCount) {
  const auto profiles = PaperTableI();
  // Within each PRP group runtimes are close; across groups they grow.
  for (int g = 0; g + 1 < 9; ++g) {
    EXPECT_LT(profiles[4 * g].runtime_ms, profiles[4 * (g + 1)].runtime_ms);
  }
}

TEST(TableI, MaxCoverageVariantsNeedMostData) {
  const auto profiles = PaperTableI();
  for (int g = 0; g < 9; ++g) {
    // Variants 1/2 are max coverage, 3 is 98 %, 4 is 95 %.
    EXPECT_GT(profiles[4 * g].data_bytes, profiles[4 * g + 2].data_bytes);
    EXPECT_GT(profiles[4 * g + 2].data_bytes, profiles[4 * g + 3].data_bytes);
  }
}

TEST(CaseStudyBuilder, MatchesPaperCounts) {
  const auto cs = BuildCaseStudy();
  EXPECT_EQ(cs.functional_task_count, 45u);
  EXPECT_EQ(cs.functional_message_count, 41u);
  EXPECT_EQ(cs.ecus.size(), 15u);
  EXPECT_EQ(cs.sensors.size(), 9u);
  EXPECT_EQ(cs.actuators.size(), 5u);
  EXPECT_EQ(cs.buses.size(), 3u);
  EXPECT_EQ(cs.augmentation.programs_by_ecu.size(), 15u);
  for (const auto& [ecu, programs] : cs.augmentation.programs_by_ecu) {
    EXPECT_EQ(programs.size(), 36u);
  }
  // Total tasks: 45 functional + 1 b^R + 15*36 b^T + 15*36 b^D.
  EXPECT_EQ(cs.spec.Application().TaskCount(), 45u + 1u + 2u * 15u * 36u);
  // Total messages: 41 functional + 15*36 c^D + 15*36 c^R.
  EXPECT_EQ(cs.spec.Application().MessageCount(), 41u + 2u * 15u * 36u);
}

TEST(CaseStudyBuilder, DeterministicForSeed) {
  const auto a = BuildCaseStudy(PaperTableI(), 42);
  const auto b = BuildCaseStudy(PaperTableI(), 42);
  ASSERT_EQ(a.spec.Mappings().size(), b.spec.Mappings().size());
  for (std::size_t i = 0; i < a.spec.Mappings().size(); ++i) {
    EXPECT_EQ(a.spec.Mappings()[i].task, b.spec.Mappings()[i].task);
    EXPECT_EQ(a.spec.Mappings()[i].resource, b.spec.Mappings()[i].resource);
  }
}

TEST(CaseStudyBuilder, TopologyIsStructurallyValid) {
  // Shared validity checks, the same ones generated corpus members satisfy.
  bistdse::testing::ExpectValidTopology(BuildCaseStudy());
}

TEST(CaseStudyBuilder, PaperStumpsTiming) {
  const auto cfg = PaperStumpsConfig();
  EXPECT_EQ(cfg.num_scan_chains, 100u);
  EXPECT_EQ(cfg.max_chain_length, 77u);
  EXPECT_DOUBLE_EQ(cfg.test_frequency_hz, 40e6);
}

}  // namespace
}  // namespace bistdse::casestudy
