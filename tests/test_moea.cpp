#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>

#include "moea/archive.hpp"
#include "moea/indicators.hpp"
#include "moea/nsga2.hpp"

namespace bistdse::moea {
namespace {

TEST(Dominance, BasicRelations) {
  EXPECT_TRUE(Dominates({1, 2}, {2, 3}));
  EXPECT_TRUE(Dominates({1, 2}, {1, 3}));
  EXPECT_FALSE(Dominates({1, 2}, {1, 2}));
  EXPECT_FALSE(Dominates({1, 3}, {2, 2}));
  EXPECT_THROW(Dominates({1}, {1, 2}), std::invalid_argument);
}

TEST(Dominance, FastNonDominatedSortLayers) {
  std::vector<ObjectiveVector> pts = {
      {1, 4}, {2, 2}, {4, 1},  // front 0
      {3, 3}, {2, 5},          // front 1
      {5, 5},                  // front 2
  };
  const auto fronts = FastNonDominatedSort(pts);
  ASSERT_EQ(fronts.size(), 3u);
  EXPECT_EQ(fronts[0].size(), 3u);
  EXPECT_EQ(fronts[1].size(), 2u);
  EXPECT_EQ(fronts[2], (std::vector<std::size_t>{5}));
}

TEST(Dominance, CrowdingBoundariesAreInfinite) {
  std::vector<ObjectiveVector> pts = {{1, 4}, {2, 2}, {4, 1}};
  std::vector<std::size_t> front = {0, 1, 2};
  const auto cd = CrowdingDistance(pts, front);
  EXPECT_TRUE(std::isinf(cd[0]));
  EXPECT_TRUE(std::isinf(cd[2]));
  EXPECT_FALSE(std::isinf(cd[1]));
  EXPECT_GT(cd[1], 0.0);
}

TEST(Archive, KeepsOnlyNonDominated) {
  ParetoArchive archive;
  EXPECT_TRUE(archive.Offer({2, 2}, 0));
  EXPECT_FALSE(archive.Offer({3, 3}, 1));   // dominated
  EXPECT_FALSE(archive.Offer({2, 2}, 2));   // duplicate
  EXPECT_TRUE(archive.Offer({1, 3}, 3));    // incomparable
  EXPECT_TRUE(archive.Offer({1, 1}, 4));    // dominates everything
  ASSERT_EQ(archive.Size(), 1u);
  EXPECT_EQ(archive.Entries()[0].payload, 4u);
}

TEST(Indicators, Hypervolume2D) {
  // Two rectangles: (1,2)->(4,4) area 3*2=6, plus (2,1): adds (4-2)*(2-1)=2.
  std::vector<ObjectiveVector> front = {{1, 2}, {2, 1}};
  EXPECT_DOUBLE_EQ(Hypervolume(front, {4, 4}), 8.0);
  EXPECT_DOUBLE_EQ(Hypervolume({}, {4, 4}), 0.0);
}

TEST(Indicators, Hypervolume3D) {
  // Single point: box volume.
  std::vector<ObjectiveVector> one = {{0, 0, 0}};
  EXPECT_DOUBLE_EQ(Hypervolume(one, {2, 3, 4}), 24.0);
  // Two incomparable points with known union volume.
  std::vector<ObjectiveVector> two = {{0, 1, 1}, {1, 0, 0}};
  // vol(A)= (2-0)(2-1)(2-1) = 2; vol(B) = (2-1)(2-0)(2-0)=4;
  // intersection = (2-1)(2-1)(2-1)=1 -> union 5.
  EXPECT_DOUBLE_EQ(Hypervolume(two, {2, 2, 2}), 5.0);
}

TEST(Indicators, Hypervolume4DMatchesMonteCarlo) {
  // Exact HSO volume vs Monte Carlo estimate on a random 4-D front.
  util::SplitMix64 rng(21);
  std::vector<ObjectiveVector> front;
  for (int i = 0; i < 12; ++i) {
    front.push_back({rng.UnitReal(), rng.UnitReal(), rng.UnitReal(),
                     rng.UnitReal()});
  }
  const ObjectiveVector ref = {1.0, 1.0, 1.0, 1.0};
  const double exact = Hypervolume(front, ref);

  std::size_t hits = 0;
  constexpr std::size_t kSamples = 200000;
  for (std::size_t s = 0; s < kSamples; ++s) {
    const ObjectiveVector x = {rng.UnitReal(), rng.UnitReal(), rng.UnitReal(),
                               rng.UnitReal()};
    for (const auto& p : front) {
      if (p[0] <= x[0] && p[1] <= x[1] && p[2] <= x[2] && p[3] <= x[3]) {
        ++hits;
        break;
      }
    }
  }
  const double estimate = static_cast<double>(hits) / kSamples;
  EXPECT_NEAR(exact, estimate, 0.01);
}

TEST(Indicators, Hypervolume4DSinglePointBox) {
  std::vector<ObjectiveVector> one = {{0, 0, 0, 0}};
  EXPECT_DOUBLE_EQ(Hypervolume(one, {2, 3, 4, 5}), 120.0);
}

TEST(Indicators, HypervolumeGrowsWithBetterFront) {
  std::vector<ObjectiveVector> worse = {{3, 3}};
  std::vector<ObjectiveVector> better = {{3, 3}, {1, 4}, {2, 2}};
  EXPECT_GT(Hypervolume(better, {5, 5}), Hypervolume(worse, {5, 5}));
}

TEST(Genotype, DecisionOrderSortsByPriority) {
  Genotype g;
  g.priorities = {0.2, 0.9, 0.5};
  g.phases = {0, 1, 0};
  DecisionOrder order;
  EXPECT_EQ(order.Compute(g), (std::vector<std::uint32_t>{1, 2, 0}));
}

/// The order DecisionOrder must reproduce: gene indices stable-sorted by
/// descending priority.
std::vector<std::uint32_t> StableSortOrder(const Genotype& g) {
  std::vector<std::uint32_t> order(g.Size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return g.priorities[a] > g.priorities[b];
                   });
  return order;
}

TEST(Genotype, DecisionOrderMatchesStableSort) {
  using Limits = std::numeric_limits<double>;
  const std::vector<double> ties = {0.5, 0.9, 0.8, 0.1, 0.0, -0.0};
  const std::vector<double> extremes = {
      Limits::max(),        -Limits::max(), Limits::min(), -Limits::min(),
      Limits::denorm_min(), -Limits::denorm_min(), 0.0,  -0.0,
      1.0,                  -1.0,           1e300,         -1e-300};
  util::SplitMix64 rng(17);
  DecisionOrder order;  // reused across calls, as a decoder reuses it
  for (std::size_t n : {0, 1, 2, 17, 473, 2000}) {
    Genotype g = RandomGenotype(n, rng);
    EXPECT_EQ(order.Compute(g), StableSortOrder(g)) << "uniform, n = " << n;

    for (double& p : g.priorities) p = ties[rng.Below(ties.size())];
    EXPECT_EQ(order.Compute(g), StableSortOrder(g)) << "ties, n = " << n;

    for (double& p : g.priorities) {
      p = rng.Chance(0.5) ? extremes[rng.Below(extremes.size())]
                          : 2.0 * rng.UnitReal() - 1.0;
    }
    EXPECT_EQ(order.Compute(g), StableSortOrder(g)) << "extremes, n = " << n;
  }

  // -0.0 and +0.0 tie, so they keep index order.
  Genotype zeros;
  zeros.priorities = {-0.0, 0.0, -0.0, 0.0};
  zeros.phases.assign(4, 0);
  EXPECT_EQ(order.Compute(zeros), (std::vector<std::uint32_t>{0, 1, 2, 3}));
}

TEST(Genotype, DecisionOrderRejectsNonFinitePriorities) {
  DecisionOrder order;
  for (double bad : {std::nan(""), std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::infinity()}) {
    Genotype g;
    g.priorities = {0.3, bad, 0.7};
    g.phases = {0, 1, 0};
    EXPECT_THROW(order.Compute(g), std::invalid_argument);
  }
}

TEST(Genotype, OperatorsAreDeterministic) {
  util::SplitMix64 r1(5), r2(5);
  const auto a1 = RandomGenotype(20, r1);
  const auto a2 = RandomGenotype(20, r2);
  EXPECT_EQ(a1.priorities, a2.priorities);
  EXPECT_EQ(a1.phases, a2.phases);
}

TEST(Genotype, MutationRespectsRate) {
  util::SplitMix64 rng(9);
  Genotype g = RandomGenotype(1000, rng);
  const Genotype before = g;
  Mutate(g, 0.0, rng);
  EXPECT_EQ(g.priorities, before.priorities);
  Mutate(g, 1.0, rng);
  EXPECT_NE(g.priorities, before.priorities);
}

// NSGA-II on a classic benchmark: minimize (f1, f2) of Schaffer's problem
// encoded through a genotype -> x in [-4, 4] decoding.
TEST(Nsga2, ConvergesOnSchafferProblem) {
  AlgorithmConfig cfg;
  cfg.population_size = 40;
  cfg.genotype_size = 16;
  cfg.seed = 3;
  Nsga2 nsga2(cfg);

  const auto evaluator =
      [](const Genotype& g) -> std::optional<ObjectiveVector> {
    // Decode bits -> x in [-4, 4].
    double x = 0.0;
    for (std::size_t i = 0; i < g.Size(); ++i) {
      if (g.phases[i]) x += 1.0 / static_cast<double>(1ull << (i + 1));
    }
    x = x * 8.0 - 4.0;
    return ObjectiveVector{x * x, (x - 2.0) * (x - 2.0)};
  };

  const auto result = nsga2.Run(evaluator, 4000);
  EXPECT_EQ(result.evaluations, 4000u);
  ASSERT_GT(result.archive.Size(), 5u);

  // The Pareto set is x in [0, 2]; on it sqrt(f1) + sqrt(f2) = 2, and
  // min(f1 + f2) = 2 (attained at x = 1).
  double best_sum = 1e9;
  for (const auto& e : result.archive.Entries()) {
    best_sum = std::min(best_sum, e.objectives[0] + e.objectives[1]);
    const double s = std::sqrt(e.objectives[0]) + std::sqrt(e.objectives[1]);
    EXPECT_NEAR(s, 2.0, 0.3);
  }
  EXPECT_NEAR(best_sum, 2.0, 0.2);
}

TEST(Nsga2, InfeasibleEvaluationsAreTolerated) {
  AlgorithmConfig cfg;
  cfg.population_size = 10;
  cfg.genotype_size = 8;
  cfg.seed = 1;
  Nsga2 nsga2(cfg);
  int calls = 0;
  const auto evaluator =
      [&](const Genotype& g) -> std::optional<ObjectiveVector> {
    ++calls;
    if (calls % 3 == 0) return std::nullopt;  // every third decode "fails"
    double ones = 0;
    for (auto p : g.phases) ones += p;
    return ObjectiveVector{ones, -ones};
  };
  const auto result = nsga2.Run(evaluator, 500);
  EXPECT_EQ(result.evaluations, 500u);
  EXPECT_GE(result.archive.Size(), 1u);
}

TEST(Nsga2, RejectsBadConfig) {
  AlgorithmConfig cfg;
  cfg.genotype_size = 0;
  EXPECT_THROW(Nsga2{cfg}, std::invalid_argument);
  cfg.genotype_size = 4;
  cfg.population_size = 1;
  EXPECT_THROW(Nsga2{cfg}, std::invalid_argument);
}

TEST(AlgorithmConfig, ValidateNamesTheField) {
  const auto message = [](const AlgorithmConfig& cfg) -> std::string {
    try {
      cfg.Validate();
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "";
  };
  AlgorithmConfig cfg;
  cfg.genotype_size = 4;
  EXPECT_EQ(message(cfg), "");
  for (const double rate : {-1.0, 0.0, 0.5, 1.0}) {
    cfg.mutation_rate = rate;
    EXPECT_EQ(message(cfg), "") << rate;
  }
  for (const double rate : {1.5, std::numeric_limits<double>::quiet_NaN()}) {
    cfg.mutation_rate = rate;
    EXPECT_NE(message(cfg).find("mutation_rate must be <= 1"),
              std::string::npos)
        << rate;
  }
  cfg.mutation_rate = -1.0;
  for (const std::size_t size : {std::size_t{0}, std::size_t{1}}) {
    cfg.population_size = size;
    EXPECT_NE(message(cfg).find("population_size must be >= 2"),
              std::string::npos)
        << size;
  }
  cfg.population_size = 2;
  cfg.archive_size = 1;
  EXPECT_NE(message(cfg).find("archive_size must be 0 or >= 2"),
            std::string::npos);
  cfg.archive_size = 2;
  EXPECT_EQ(message(cfg), "");
  cfg.genotype_size = 0;
  EXPECT_NE(message(cfg).find("genotype_size"), std::string::npos);
}

TEST(Nsga2, DeterministicForFixedSeed) {
  AlgorithmConfig cfg;
  cfg.population_size = 12;
  cfg.genotype_size = 10;
  cfg.seed = 77;
  const auto evaluator =
      [](const Genotype& g) -> std::optional<ObjectiveVector> {
    double ones = 0;
    for (auto p : g.phases) ones += p;
    return ObjectiveVector{ones, 10.0 - ones};
  };
  Nsga2 a(cfg), b(cfg);
  const auto ra = a.Run(evaluator, 300);
  const auto rb = b.Run(evaluator, 300);
  ASSERT_EQ(ra.archive.Size(), rb.archive.Size());
  for (std::size_t i = 0; i < ra.archive.Size(); ++i) {
    EXPECT_EQ(ra.archive.Entries()[i].objectives,
              rb.archive.Entries()[i].objectives);
  }
}

}  // namespace
}  // namespace bistdse::moea
