#include <gtest/gtest.h>

#include "casestudy/casestudy.hpp"
#include "dse/parallel.hpp"

namespace bistdse::dse {
namespace {

/// Two profiles with an SAF-vs-TDF trade: A has the better stuck-at
/// coverage, B the better transition coverage; everything else equal.
std::vector<bist::BistProfile> TradeoffProfiles() {
  bist::BistProfile a;
  a.profile_number = 1;
  a.num_random_patterns = 1000;
  a.fault_coverage_percent = 99.0;
  a.transition_coverage_percent = 60.0;
  a.runtime_ms = 5.0;
  a.data_bytes = 500000;
  bist::BistProfile b = a;
  b.profile_number = 2;
  b.fault_coverage_percent = 96.0;
  b.transition_coverage_percent = 90.0;
  return {a, b};
}

TEST(DualFaultModel, FourthObjectivePreservesTdfTradePoints) {
  auto cs = casestudy::BuildCaseStudy(TradeoffProfiles(), 42);

  auto run = [&](bool include_tdf) {
    ExplorationConfig cfg;
    cfg.evaluations = 1500;
    cfg.population_size = 32;
    cfg.seed = 3;
    cfg.include_transition_quality = include_tdf;
    return ExploreParallel(cs.spec, cs.augmentation, cfg, 1);
  };

  const auto without = run(false);
  const auto with = run(true);

  // In 3-objective mode profile B (lower stuck-at quality, same cost and
  // runtime) is dominated whenever profile A is available; in 4-objective
  // mode its superior TDF quality keeps it on the front.
  auto max_tdf = [](const ExplorationResult& r) {
    double best = 0.0;
    for (const auto& e : r.pareto) {
      best = std::max(best, e.objectives.transition_quality_percent);
    }
    return best;
  };
  // With the TDF objective, designs approaching all-B (TDF ~90 per covered
  // ECU) must appear.
  EXPECT_GT(max_tdf(with), max_tdf(without) + 5.0);

  // Dimensionality is consistent within each run.
  for (const auto& e : with.pareto) {
    EXPECT_EQ(e.objectives
                  .ToMinimizationVector(/*include_transition_quality=*/true)
                  .size(),
              4u);
  }
}

TEST(DualFaultModel, TransitionQualityAveragesLikeEq4) {
  auto cs = casestudy::BuildCaseStudy(TradeoffProfiles(), 42);
  ExplorationConfig cfg;
  cfg.evaluations = 200;
  cfg.population_size = 16;
  cfg.seed = 9;
  cfg.include_transition_quality = true;
  const auto result = ExploreParallel(cs.spec, cs.augmentation, cfg, 1);
  for (const auto& e : result.pareto) {
    const auto& o = e.objectives;
    // TDF quality is bounded by (#BIST ECUs * 90) / allocated ECUs.
    if (o.ecus_allocated == 0) continue;
    EXPECT_LE(o.transition_quality_percent,
              90.0 * o.ecus_with_bist / o.ecus_allocated + 1e-9);
  }
}

}  // namespace
}  // namespace bistdse::dse
