#include <gtest/gtest.h>

#include <cmath>

#include "archived_evaluator.hpp"
#include "moea/indicators.hpp"
#include "moea/nsga2.hpp"
#include "moea/spea2.hpp"

namespace bistdse::moea {
namespace {

/// Schaffer's problem via a 16-bit genotype decode.
std::optional<ObjectiveVector> Schaffer(const Genotype& g) {
  double x = 0.0;
  for (std::size_t i = 0; i < g.Size(); ++i) {
    if (g.phases[i]) x += 1.0 / static_cast<double>(1ull << (i + 1));
  }
  x = x * 8.0 - 4.0;
  return ObjectiveVector{x * x, (x - 2.0) * (x - 2.0)};
}

TEST(Spea2, ConvergesOnSchafferProblem) {
  AlgorithmConfig cfg;
  cfg.population_size = 40;
  cfg.genotype_size = 16;
  cfg.seed = 3;
  Spea2 spea2(cfg);
  ParetoArchive archive;
  const auto result = spea2.Run(testing::Archived(Schaffer, archive), 4000);
  EXPECT_EQ(result.evaluations, 4000u);
  ASSERT_GT(archive.Size(), 5u);
  for (const auto& e : archive.Entries()) {
    const double s = std::sqrt(e.objectives[0]) + std::sqrt(e.objectives[1]);
    EXPECT_NEAR(s, 2.0, 0.3);
  }
}

TEST(Spea2, ComparableHypervolumeToNsga2) {
  const std::size_t evals = 3000;
  AlgorithmConfig sc;
  sc.population_size = 32;
  sc.genotype_size = 16;
  sc.seed = 7;
  Spea2 spea2(sc);
  ParetoArchive spea_front;
  spea2.Run(testing::Archived(Schaffer, spea_front), evals);

  AlgorithmConfig nc;
  nc.population_size = 32;
  nc.genotype_size = 16;
  nc.seed = 7;
  Nsga2 nsga2(nc);
  ParetoArchive nsga_front;
  nsga2.Run(testing::Archived(Schaffer, nsga_front), evals);

  auto hv = [](const ParetoArchive& archive) {
    std::vector<ObjectiveVector> pts;
    for (const auto& e : archive.Entries()) pts.push_back(e.objectives);
    return Hypervolume(pts, {20.0, 20.0});
  };
  const double spea_hv = hv(spea_front);
  const double nsga_hv = hv(nsga_front);
  // Both algorithms should land within 5 % of each other on this easy
  // problem.
  EXPECT_NEAR(spea_hv, nsga_hv, 0.05 * nsga_hv);
}

TEST(Spea2, DeterministicForFixedSeed) {
  AlgorithmConfig cfg;
  cfg.population_size = 16;
  cfg.genotype_size = 10;
  cfg.seed = 5;
  Spea2 a(cfg), b(cfg);
  ParetoArchive fa, fb;
  a.Run(testing::Archived(Schaffer, fa), 400);
  b.Run(testing::Archived(Schaffer, fb), 400);
  ASSERT_EQ(fa.Size(), fb.Size());
  for (std::size_t i = 0; i < fa.Size(); ++i) {
    EXPECT_EQ(fa.Entries()[i].objectives, fb.Entries()[i].objectives);
  }
}

TEST(Spea2, ToleratesInfeasibleEvaluations) {
  AlgorithmConfig cfg;
  cfg.population_size = 10;
  cfg.genotype_size = 8;
  cfg.seed = 1;
  Spea2 spea2(cfg);
  int calls = 0;
  const auto evaluator =
      [&](const Genotype& g) -> std::optional<ObjectiveVector> {
    ++calls;
    if (calls % 4 == 0) return std::nullopt;
    double ones = 0;
    for (auto p : g.phases) ones += p;
    return ObjectiveVector{ones, 8.0 - ones};
  };
  ParetoArchive archive;
  const auto result = spea2.Run(testing::Archived(evaluator, archive), 400);
  EXPECT_EQ(result.evaluations, 400u);
  EXPECT_GE(archive.Size(), 1u);
}

TEST(Spea2, RejectsBadConfig) {
  AlgorithmConfig cfg;
  cfg.genotype_size = 0;
  EXPECT_THROW(Spea2{cfg}, std::invalid_argument);
  cfg.genotype_size = 4;
  cfg.population_size = 1;
  EXPECT_THROW(Spea2{cfg}, std::invalid_argument);
}

}  // namespace
}  // namespace bistdse::moea
