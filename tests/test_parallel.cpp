#include <gtest/gtest.h>

#include <sstream>

#include "casestudy/casestudy.hpp"
#include "dse/parallel.hpp"
#include "model/spec_io.hpp"

namespace bistdse::dse {
namespace {

casestudy::CaseStudy SmallCaseStudy() {
  auto profiles = casestudy::PaperTableI();
  profiles.resize(4);
  return casestudy::BuildCaseStudy(profiles, 42);
}

TEST(ParallelExplorer, MergesIslandFronts) {
  auto cs = SmallCaseStudy();
  ExplorationConfig cfg;
  cfg.evaluations = 400;
  cfg.population_size = 20;
  cfg.seed = 1;
  const auto merged = ExploreParallel(cs.spec, cs.augmentation, cfg, 3);
  EXPECT_EQ(merged.evaluations, 3u * 400u);
  ASSERT_GT(merged.pareto.size(), 3u);
  // Merged front is internally non-dominated.
  for (std::size_t i = 0; i < merged.pareto.size(); ++i) {
    for (std::size_t j = 0; j < merged.pareto.size(); ++j) {
      if (i == j) continue;
      EXPECT_FALSE(
          moea::Dominates(merged.pareto[i].objectives.ToMinimizationVector(),
                          merged.pareto[j].objectives.ToMinimizationVector()));
    }
  }
}

TEST(ParallelExplorer, DeterministicAcrossRuns) {
  auto cs = SmallCaseStudy();
  ExplorationConfig cfg;
  cfg.evaluations = 250;
  cfg.population_size = 16;
  cfg.seed = 5;
  const auto a = ExploreParallel(cs.spec, cs.augmentation, cfg, 2);
  const auto b = ExploreParallel(cs.spec, cs.augmentation, cfg, 2);
  ASSERT_EQ(a.pareto.size(), b.pareto.size());
  for (std::size_t i = 0; i < a.pareto.size(); ++i) {
    EXPECT_EQ(a.pareto[i].objectives.ToMinimizationVector(),
              b.pareto[i].objectives.ToMinimizationVector());
  }
}

TEST(ParallelExplorer, MoreIslandsNeverShrinkCoverage) {
  auto cs = SmallCaseStudy();
  ExplorationConfig cfg;
  cfg.evaluations = 300;
  cfg.population_size = 16;
  cfg.seed = 2;
  const auto one = ExploreParallel(cs.spec, cs.augmentation, cfg, 1);
  const auto four = ExploreParallel(cs.spec, cs.augmentation, cfg, 4);
  // Island 1 of `four` equals `one`; the merge can only add non-dominated
  // points or evict dominated ones, so every `four` point is at least as
  // good as something in `one` (weak sanity: front not smaller than half).
  EXPECT_GE(four.pareto.size() + 2, one.pareto.size() / 2);
  EXPECT_EQ(four.evaluations, 4u * 300u);
}

TEST(ImplementationIo, RoundTripsBinding) {
  auto cs = SmallCaseStudy();
  ExplorationConfig cfg;
  cfg.evaluations = 200;
  cfg.population_size = 16;
  cfg.seed = 3;
  const auto result = ExploreParallel(cs.spec, cs.augmentation, cfg, 1);
  ASSERT_FALSE(result.pareto.empty());
  const auto& original = result.pareto.front().implementation;

  std::ostringstream out;
  model::WriteImplementation(cs.spec, original, out);
  std::istringstream in(out.str());
  const auto loaded = model::ReadImplementation(cs.spec, in);

  // Same binding set (order may differ) and identical objectives.
  auto sorted = [](std::vector<std::size_t> v) {
    std::sort(v.begin(), v.end());
    return v;
  };
  EXPECT_EQ(sorted(loaded.binding), sorted(original.binding));
  const auto oa = EvaluateImplementation(cs.spec, cs.augmentation, original);
  const auto ob = EvaluateImplementation(cs.spec, cs.augmentation, loaded);
  EXPECT_EQ(oa.ToMinimizationVector(), ob.ToMinimizationVector());
}

TEST(ImplementationIo, RejectsUnknownNames) {
  auto cs = SmallCaseStudy();
  std::istringstream bad1("bind nope ecu0\n");
  EXPECT_THROW(model::ReadImplementation(cs.spec, bad1), std::runtime_error);
  std::istringstream bad2("bind engine.proc0 gateway\n");
  EXPECT_THROW(model::ReadImplementation(cs.spec, bad2), std::runtime_error);
}

}  // namespace
}  // namespace bistdse::dse
