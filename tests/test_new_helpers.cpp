#include <gtest/gtest.h>

#include <sstream>

#include "casestudy/casestudy.hpp"
#include "dse/parallel.hpp"
#include "dse/report.hpp"
#include "sim/fault_sim.hpp"
#include "test_helpers.hpp"

namespace bistdse {
namespace {

TEST(CountDetectedFaults, FullCoverageOnC17Exhaustive) {
  auto nl = testing::MakeC17();
  std::vector<sim::BitPattern> patterns;
  for (int p = 0; p < 32; ++p) {
    sim::BitPattern pat(5);
    for (int i = 0; i < 5; ++i) pat[i] = (p >> i) & 1;
    patterns.push_back(pat);
  }
  const auto faults = sim::CollapsedFaults(nl);
  EXPECT_EQ(sim::CountDetectedFaults(nl, patterns, faults), faults.size());
  EXPECT_EQ(sim::CountDetectedFaults(nl, {}, faults), 0u);
}

TEST(SummarizeFront, NamesHeadlineAndCounts) {
  auto profiles = casestudy::PaperTableI();
  profiles.resize(4);
  auto cs = casestudy::BuildCaseStudy(profiles, 42);
  dse::ExplorationConfig cfg;
  cfg.evaluations = 400;
  cfg.population_size = 20;
  cfg.seed = 2;
  const auto result = dse::ExploreParallel(cs.spec, cs.augmentation, cfg, 1);

  const std::string summary = dse::SummarizeFront(result);
  EXPECT_NE(summary.find("## Exploration summary"), std::string::npos);
  EXPECT_NE(summary.find("non-dominated implementations: "),
            std::string::npos);
  EXPECT_NE(summary.find("headline: "), std::string::npos);
  EXPECT_NE(summary.find("shut-off <= 20 s: "), std::string::npos);

  // A quality bar nothing reaches produces the fallback line.
  const std::string impossible = dse::SummarizeFront(result, 1000.0);
  EXPECT_NE(impossible.find("no design reaches"), std::string::npos);
}

}  // namespace
}  // namespace bistdse
