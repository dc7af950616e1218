#include <gtest/gtest.h>

#include "casestudy/casestudy.hpp"
#include "dse/parallel.hpp"
#include "dse/refine.hpp"
#include "moea/indicators.hpp"

namespace bistdse::dse {
namespace {

casestudy::CaseStudy SmallCaseStudy() {
  auto profiles = casestudy::PaperTableI();
  profiles.resize(8);
  return casestudy::BuildCaseStudy(profiles, 42);
}

double FrontHypervolume(std::span<const ExplorationEntry> front) {
  std::vector<moea::ObjectiveVector> pts;
  for (const auto& e : front) {
    auto v = e.objectives.ToMinimizationVector();
    v[1] = std::min(v[1], 1e7);
    pts.push_back(v);
  }
  return moea::Hypervolume(pts, {0.0, 1e7, 2000.0});
}

TEST(Refine, ImprovesOrPreservesFront) {
  auto cs = SmallCaseStudy();
  ExplorationConfig cfg;
  cfg.evaluations = 800;
  cfg.population_size = 32;
  cfg.seed = 4;
  const auto explored = ExploreParallel(cs.spec, cs.augmentation, cfg, 1);
  ASSERT_GT(explored.pareto.size(), 3u);

  RefineOptions opts;
  opts.max_evaluations = 3000;
  opts.seed = 9;
  const auto refined =
      RefineFront(cs.spec, cs.augmentation, explored.pareto, cfg, opts);
  EXPECT_GT(refined.evaluations, 0u);

  // Hypervolume must not regress, and the refined set must be internally
  // non-dominated.
  EXPECT_GE(FrontHypervolume(refined.pareto) + 1e-9,
            FrontHypervolume(explored.pareto));
  for (std::size_t i = 0; i < refined.pareto.size(); ++i) {
    for (std::size_t j = 0; j < refined.pareto.size(); ++j) {
      if (i == j) continue;
      EXPECT_FALSE(
          moea::Dominates(refined.pareto[i].objectives.ToMinimizationVector(),
                          refined.pareto[j].objectives.ToMinimizationVector()));
    }
  }
}

TEST(Refine, NeighborsAreAllFeasible) {
  auto cs = SmallCaseStudy();
  ExplorationConfig cfg;
  cfg.evaluations = 300;
  cfg.population_size = 16;
  cfg.seed = 6;
  const auto explored = ExploreParallel(cs.spec, cs.augmentation, cfg, 1);

  RefineOptions opts;
  opts.max_evaluations = 1500;
  const auto refined =
      RefineFront(cs.spec, cs.augmentation, explored.pareto, cfg, opts);
  for (const auto& entry : refined.pareto) {
    const auto violations =
        model::ValidateImplementation(cs.spec, entry.implementation);
    EXPECT_TRUE(violations.empty()) << (violations.empty() ? "" : violations[0]);
  }
}

TEST(Refine, RespectsEvaluationBudget) {
  auto cs = SmallCaseStudy();
  ExplorationConfig cfg;
  cfg.evaluations = 300;
  cfg.population_size = 16;
  cfg.seed = 6;
  const auto explored = ExploreParallel(cs.spec, cs.augmentation, cfg, 1);

  RefineOptions opts;
  opts.max_evaluations = 50;
  const auto refined =
      RefineFront(cs.spec, cs.augmentation, explored.pareto, cfg, opts);
  EXPECT_LE(refined.evaluations, 50u);
}

TEST(Refine, DeterministicForFixedSeed) {
  auto cs = SmallCaseStudy();
  ExplorationConfig cfg;
  cfg.evaluations = 300;
  cfg.population_size = 16;
  cfg.seed = 6;
  const auto explored = ExploreParallel(cs.spec, cs.augmentation, cfg, 1);

  RefineOptions opts;
  opts.max_evaluations = 800;
  opts.seed = 3;
  const auto a =
      RefineFront(cs.spec, cs.augmentation, explored.pareto, cfg, opts);
  const auto b =
      RefineFront(cs.spec, cs.augmentation, explored.pareto, cfg, opts);
  ASSERT_EQ(a.pareto.size(), b.pareto.size());
  for (std::size_t i = 0; i < a.pareto.size(); ++i) {
    EXPECT_EQ(a.pareto[i].objectives.ToMinimizationVector(),
              b.pareto[i].objectives.ToMinimizationVector());
  }
}

TEST(Refine, KeepsTheExplorationsObjectives) {
  // A front explored under CAN FD is refined under CAN FD: every refined
  // entry, explored or found by a local move, carries the objectives its
  // implementation has under the exploration's options.
  const auto cs = casestudy::BuildCaseStudy(42);
  ExplorationConfig cfg;
  cfg.evaluations = 2000;
  cfg.seed = 1;
  cfg.evaluation.use_can_fd = true;
  const auto explored = ExploreParallel(cs.spec, cs.augmentation, cfg, 1);

  RefineOptions opts;
  opts.max_evaluations = 2000;
  const auto refined =
      RefineFront(cs.spec, cs.augmentation, explored.pareto, cfg, opts);
  ASSERT_GT(refined.improvements, 0u);
  for (std::size_t i = 0; i < refined.pareto.size(); ++i) {
    const Objectives expected =
        EvaluateImplementation(cs.spec, cs.augmentation,
                               refined.pareto[i].implementation, cfg.evaluation);
    EXPECT_EQ(refined.pareto[i].objectives.shutoff_time_ms,
              expected.shutoff_time_ms)
        << "entry " << i;
    EXPECT_EQ(refined.pareto[i].objectives.ToMinimizationVector(true),
              expected.ToMinimizationVector(true))
        << "entry " << i;
  }
}

}  // namespace
}  // namespace bistdse::dse
