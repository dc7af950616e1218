#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "bist/profile_generator.hpp"
#include "test_helpers.hpp"

namespace bistdse::bist {
namespace {

ProfileGeneratorConfig SmallConfig() {
  ProfileGeneratorConfig cfg;
  cfg.prp_counts = {64, 256, 1024};
  cfg.coverage_targets_percent = {100.0, 90.0};
  cfg.fill_seeds = {7, 7};
  cfg.stumps.signature_window = 32;
  cfg.podem_backtrack_limit = 50;
  return cfg;
}

class ProfileGeneratorTest : public ::testing::Test {
 protected:
  ProfileGeneratorTest()
      : netlist_(bistdse::testing::MakeSmallRandom(71, 300)),
        generator_(netlist_, SmallConfig()),
        profiles_(generator_.GenerateAll()) {}

  netlist::Netlist netlist_;
  ProfileGenerator generator_;
  std::vector<BistProfile> profiles_;
};

TEST_F(ProfileGeneratorTest, ProducesFullMatrix) {
  EXPECT_EQ(profiles_.size(), 3u * 2u);
  for (std::size_t i = 0; i < profiles_.size(); ++i) {
    EXPECT_EQ(profiles_[i].profile_number, i + 1);
  }
}

TEST_F(ProfileGeneratorTest, RuntimeGrowsWithPatternCount) {
  // Within a variant, more PRPs -> longer session (deterministic top-up
  // shrinks, but PRP time dominates at these ratios).
  EXPECT_LT(profiles_[0].runtime_ms, profiles_[4].runtime_ms);
  EXPECT_LT(profiles_[1].runtime_ms, profiles_[5].runtime_ms);
}

TEST_F(ProfileGeneratorTest, MaxTargetGivesHighestCoverage) {
  // Variant 0 (target 100 %) must reach at least variant 1 (90 %) coverage
  // for every PRP count.
  for (int i = 0; i < 3; ++i) {
    EXPECT_GE(profiles_[2 * i].fault_coverage_percent,
              profiles_[2 * i + 1].fault_coverage_percent);
  }
}

TEST_F(ProfileGeneratorTest, LowerTargetNeedsLessData) {
  for (int i = 0; i < 3; ++i) {
    EXPECT_LE(profiles_[2 * i + 1].data_bytes, profiles_[2 * i].data_bytes);
  }
}

TEST_F(ProfileGeneratorTest, MorePrpsNeedFewerDeterministicPatterns) {
  EXPECT_GE(profiles_[0].num_deterministic_patterns,
            profiles_[4].num_deterministic_patterns);
}

TEST_F(ProfileGeneratorTest, CoverageTargetRespected) {
  // The 90 % variant must reach 90 % (the circuit is random-pattern friendly
  // enough) without grossly overshooting the necessary pattern count.
  for (int i = 0; i < 3; ++i) {
    EXPECT_GE(profiles_[2 * i + 1].fault_coverage_percent, 90.0);
  }
}

TEST_F(ProfileGeneratorTest, StatsAreFilled) {
  const auto& stats = generator_.Stats();
  EXPECT_GT(stats.total_collapsed_faults, 0u);
  EXPECT_GT(stats.random_detected_at_max_prps, 0u);
  EXPECT_LE(stats.random_detected_at_max_prps, stats.total_collapsed_faults);
}

TEST(ProfileGeneratorConfigTest, Validation) {
  auto nl = bistdse::testing::MakeSmallRandom(73, 100);
  ProfileGeneratorConfig bad = SmallConfig();
  bad.fill_seeds = {1};
  EXPECT_THROW(ProfileGenerator(nl, bad), std::invalid_argument);
  bad = SmallConfig();
  bad.prp_counts = {1000, 100};
  EXPECT_THROW(ProfileGenerator(nl, bad), std::invalid_argument);
  bad = SmallConfig();
  bad.prp_counts.clear();
  EXPECT_THROW(ProfileGenerator(nl, bad), std::invalid_argument);
  bad = SmallConfig();
  bad.coverage_targets_percent.clear();
  bad.fill_seeds.clear();
  EXPECT_THROW(ProfileGenerator(nl, bad), std::invalid_argument);
  // A repeated count is not strictly ascending.
  bad = SmallConfig();
  bad.prp_counts = {64, 256, 256};
  EXPECT_THROW(bad.Validate(), std::invalid_argument);
  EXPECT_THROW(ProfileGenerator(nl, bad), std::invalid_argument);
  for (const double scale : {-1.0, -1e-9, std::nan(""), HUGE_VAL}) {
    bad = SmallConfig();
    bad.byte_scale = scale;
    EXPECT_THROW(ProfileGenerator(nl, bad), std::invalid_argument) << scale;
  }
  // Each message names its field.
  bad = SmallConfig();
  bad.byte_scale = -1.0;
  try {
    bad.Validate();
    ADD_FAILURE() << "negative byte_scale accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("byte_scale"), std::string::npos);
  }
  ProfileGeneratorConfig ok = SmallConfig();
  ok.byte_scale = 0.0;
  EXPECT_NO_THROW(ok.Validate());
}

TEST(ProfileGeneratorScaling, OverflowingByteScaleThrows) {
  // Finite and valid, but every scaled size exceeds 2^64-1 bytes: the
  // conversion must throw instead of producing an arbitrary count.
  auto nl = bistdse::testing::MakeSmallRandom(75, 200);
  ProfileGeneratorConfig cfg = SmallConfig();
  cfg.prp_counts = {64};
  cfg.coverage_targets_percent = {100.0};
  cfg.fill_seeds = {3};
  cfg.byte_scale = 1e300;
  ProfileGenerator generator(nl, cfg);
  EXPECT_THROW(generator.GenerateAll(), std::invalid_argument);
  EXPECT_EQ(ScaledDataBytes(18446744073709549568.0, "s"),
            18446744073709549568ull);  // the largest double below 2^64
  EXPECT_THROW(ScaledDataBytes(18446744073709551616.0, "s"),
               std::invalid_argument);
}

TEST(ProfileGeneratorScaling, ByteScaleMultiplies) {
  auto nl = bistdse::testing::MakeSmallRandom(75, 200);
  ProfileGeneratorConfig cfg = SmallConfig();
  cfg.prp_counts = {64};
  cfg.coverage_targets_percent = {100.0};
  cfg.fill_seeds = {3};
  ProfileGenerator g1(nl, cfg);
  const auto p1 = g1.GenerateAll();
  cfg.byte_scale = 10.0;
  ProfileGenerator g10(nl, cfg);
  const auto p10 = g10.GenerateAll();
  ASSERT_EQ(p1.size(), 1u);
  ASSERT_EQ(p10.size(), 1u);
  EXPECT_NEAR(static_cast<double>(p10[0].data_bytes),
              10.0 * static_cast<double>(p1[0].data_bytes),
              10.0);
}

TEST(ProfileGeneratorTransition, MeasuresTdfCoverageWhenEnabled) {
  auto nl = bistdse::testing::MakeSmallRandom(77, 200);
  ProfileGeneratorConfig cfg = SmallConfig();
  cfg.prp_counts = {128};
  cfg.coverage_targets_percent = {100.0};
  cfg.fill_seeds = {5};
  cfg.measure_transition_coverage = true;
  cfg.transition_pairs_cap = 256;
  ProfileGenerator generator(nl, cfg);
  const auto profiles = generator.GenerateAll();
  ASSERT_EQ(profiles.size(), 1u);
  // TDF coverage measured, positive, and below the stuck-at coverage (the
  // classic LOC relation).
  EXPECT_GT(profiles[0].transition_coverage_percent, 20.0);
  EXPECT_LT(profiles[0].transition_coverage_percent,
            profiles[0].fault_coverage_percent);

  // Off by default.
  cfg.measure_transition_coverage = false;
  ProfileGenerator g2(nl, cfg);
  EXPECT_EQ(g2.GenerateAll()[0].transition_coverage_percent, 0.0);
}

TEST(ProfileTable, FormatsAllRows) {
  std::vector<BistProfile> ps(3);
  for (int i = 0; i < 3; ++i) {
    ps[i].profile_number = i + 1;
    ps[i].num_random_patterns = 500 * (i + 1);
    ps[i].fault_coverage_percent = 99.0;
    ps[i].runtime_ms = 4.87;
    ps[i].data_bytes = 2399185;
  }
  const std::string table = FormatProfileTable(ps);
  EXPECT_NE(table.find("2399185"), std::string::npos);
  EXPECT_NE(table.find("#PRPs"), std::string::npos);
  // Header + separator + 3 rows.
  EXPECT_EQ(std::count(table.begin(), table.end(), '\n'), 5);
}

}  // namespace
}  // namespace bistdse::bist
