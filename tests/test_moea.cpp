#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <span>
#include <stdexcept>
#include <string>

#include "archived_evaluator.hpp"
#include "moea/archive.hpp"
#include "moea/indicators.hpp"
#include "moea/nsga2.hpp"
#include "moea/spea2.hpp"

namespace bistdse::moea {
namespace {

TEST(Dominance, BasicRelations) {
  EXPECT_TRUE(Dominates({1, 2}, {2, 3}));
  EXPECT_TRUE(Dominates({1, 2}, {1, 3}));
  EXPECT_FALSE(Dominates({1, 2}, {1, 2}));
  EXPECT_FALSE(Dominates({1, 3}, {2, 2}));
  EXPECT_THROW(Dominates({1}, {1, 2}), std::invalid_argument);
}

/// `points` row-major, the layout FastNonDominatedSort reads.
std::vector<double> Flatten(const std::vector<ObjectiveVector>& points) {
  std::vector<double> flat;
  for (const ObjectiveVector& p : points) {
    flat.insert(flat.end(), p.begin(), p.end());
  }
  return flat;
}

TEST(Dominance, FastNonDominatedSortLayers) {
  std::vector<ObjectiveVector> pts = {
      {1, 4}, {2, 2}, {4, 1},  // front 0
      {3, 3}, {2, 5},          // front 1
      {5, 5},                  // front 2
  };
  const auto fronts = FastNonDominatedSort(Flatten(pts), 2);
  ASSERT_EQ(fronts.size(), 3u);
  EXPECT_EQ(fronts[0].size(), 3u);
  EXPECT_EQ(fronts[1].size(), 2u);
  EXPECT_EQ(fronts[2], (std::vector<std::size_t>{5}));
}

TEST(Dominance, FastNonDominatedSortRejectsRaggedBuffers) {
  const std::vector<double> five = {1, 2, 3, 4, 5};
  EXPECT_THROW(FastNonDominatedSort(five, 2), std::invalid_argument);
  EXPECT_THROW(FastNonDominatedSort(five, 0), std::invalid_argument);
  EXPECT_THROW(FastNonDominatedSort({}, 0), std::invalid_argument);
  EXPECT_EQ(FastNonDominatedSort(five, 5).size(), 1u);
  EXPECT_TRUE(FastNonDominatedSort({}, 3).empty());
}

TEST(Dominance, CrowdingBoundariesAreInfinite) {
  std::vector<ObjectiveVector> pts = {{1, 4}, {2, 2}, {4, 1}};
  std::vector<std::size_t> front = {0, 1, 2};
  const auto cd = CrowdingDistance(Flatten(pts), 2, front);
  EXPECT_TRUE(std::isinf(cd[0]));
  EXPECT_TRUE(std::isinf(cd[2]));
  EXPECT_FALSE(std::isinf(cd[1]));
  EXPECT_GT(cd[1], 0.0);
}

// The sort and the crowding distance as they were written over one heap
// vector per point, with every ordered pair tested: the oracles of the
// one-pass versions above, kept verbatim.
std::vector<std::vector<std::size_t>> OracleFastNonDominatedSort(
    std::span<const ObjectiveVector> points) {
  const std::size_t n = points.size();
  std::vector<std::vector<std::size_t>> dominated(n);
  std::vector<std::size_t> domination_count(n, 0);
  std::vector<std::vector<std::size_t>> fronts(1);

  for (std::size_t p = 0; p < n; ++p) {
    for (std::size_t q = 0; q < n; ++q) {
      if (p == q) continue;
      if (Dominates(points[p], points[q])) {
        dominated[p].push_back(q);
      } else if (Dominates(points[q], points[p])) {
        ++domination_count[p];
      }
    }
    if (domination_count[p] == 0) fronts[0].push_back(p);
  }

  std::size_t current = 0;
  while (!fronts[current].empty()) {
    std::vector<std::size_t> next;
    for (std::size_t p : fronts[current]) {
      for (std::size_t q : dominated[p]) {
        if (--domination_count[q] == 0) next.push_back(q);
      }
    }
    ++current;
    fronts.push_back(std::move(next));
  }
  fronts.pop_back();  // last front is empty
  return fronts;
}

std::vector<double> OracleCrowdingDistance(
    std::span<const ObjectiveVector> points,
    std::span<const std::size_t> front) {
  const std::size_t n = front.size();
  std::vector<double> distance(n, 0.0);
  if (n == 0) return distance;
  const std::size_t dims = points[front[0]].size();

  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;

  for (std::size_t d = 0; d < dims; ++d) {
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return points[front[a]][d] < points[front[b]][d];
    });
    distance[order.front()] = std::numeric_limits<double>::infinity();
    distance[order.back()] = std::numeric_limits<double>::infinity();
    const double span =
        points[front[order.back()]][d] - points[front[order.front()]][d];
    if (span <= 0.0) continue;
    for (std::size_t i = 1; i + 1 < n; ++i) {
      distance[order[i]] += (points[front[order[i + 1]]][d] -
                             points[front[order[i - 1]]][d]) /
                            span;
    }
  }
  return distance;
}

/// Equal bit for bit, so NaN matches NaN and -0.0 differs from +0.0.
bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(),
                                   a.size() * sizeof(double)) == 0);
}

/// n random points of `dims` coordinates. Coordinates come from a small grid
/// (ties in single coordinates), and with `special` also +-0.0, +-infinity
/// and NaN; about one point in eight repeats an earlier one.
std::vector<ObjectiveVector> RandomPoints(std::size_t n, std::size_t dims,
                                          bool special,
                                          util::SplitMix64& rng) {
  const double specials[] = {0.0, -0.0, std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity(),
                             std::numeric_limits<double>::quiet_NaN()};
  std::vector<ObjectiveVector> points;
  for (std::size_t i = 0; i < n; ++i) {
    if (i > 0 && rng.Chance(0.125)) {
      points.push_back(points[rng.Below(i)]);
      continue;
    }
    ObjectiveVector p(dims);
    for (double& x : p) {
      if (special && rng.Chance(0.1)) {
        x = specials[rng.Below(std::size(specials))];
      } else {
        x = static_cast<double>(rng.Below(8)) - 2.0 + 0.25 * rng.UnitReal();
        if (rng.Chance(0.5)) x = std::floor(x);
      }
    }
    points.push_back(std::move(p));
  }
  return points;
}

TEST(Dominance, OnePassSortAndCrowdingMatchTheOracles) {
  util::SplitMix64 rng(26);
  const std::size_t sizes[] = {0,  1,  2,   3,   7,   31,  63,  64,
                               65, 97, 127, 128, 129, 200, 257, 300};
  for (const std::size_t n : sizes) {
    for (std::size_t dims = 1; dims <= 4; ++dims) {
      for (const bool special : {false, true}) {
        const auto points = RandomPoints(n, dims, special, rng);
        const std::vector<double> flat = Flatten(points);
        const auto fronts = FastNonDominatedSort(flat, dims);
        const auto expected = OracleFastNonDominatedSort(points);
        ASSERT_EQ(fronts, expected)
            << "n = " << n << ", dims = " << dims << ", special = " << special;

        // Every front, and the whole set in a shuffled order.
        std::vector<std::vector<std::size_t>> sets = expected;
        std::vector<std::size_t> all(n);
        std::iota(all.begin(), all.end(), std::size_t{0});
        std::shuffle(all.begin(), all.end(), rng);
        sets.push_back(all);
        for (const auto& set : sets) {
          EXPECT_TRUE(SameBits(CrowdingDistance(flat, dims, set),
                               OracleCrowdingDistance(points, set)))
              << "n = " << n << ", dims = " << dims
              << ", special = " << special << ", set of " << set.size();
        }
      }
    }
  }
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

// Crossover and mutation as they were written with rng.Chance: the oracles
// of the branch-free versions.
Genotype OracleUniformCrossover(const Genotype& a, const Genotype& b,
                                util::SplitMix64& rng) {
  if (a.Size() != b.Size())
    throw std::invalid_argument("genotype size mismatch");
  Genotype child;
  child.priorities.resize(a.Size());
  child.phases.resize(a.Size());
  for (std::size_t i = 0; i < a.Size(); ++i) {
    const bool from_a = rng.Chance(0.5);
    child.priorities[i] = from_a ? a.priorities[i] : b.priorities[i];
    child.phases[i] = from_a ? a.phases[i] : b.phases[i];
  }
  return child;
}

void OracleMutate(Genotype& genotype, double rate, util::SplitMix64& rng) {
  for (std::size_t i = 0; i < genotype.Size(); ++i) {
    if (!rng.Chance(rate)) continue;
    genotype.priorities[i] = rng.UnitReal();
    if (rng.Chance(0.5)) genotype.phases[i] ^= 1;
  }
}

/// A generator whose next draw is `draw`: SplitMix64's output step undone.
util::SplitMix64 GeneratorDrawingNext(std::uint64_t draw) {
  const auto unshift = [](std::uint64_t y, int k) {
    std::uint64_t x = y;
    for (int i = 0; i < 64 / k + 1; ++i) x = y ^ (x >> k);
    return x;
  };
  const auto inverse = [](std::uint64_t c) {  // of an odd c, mod 2^64
    std::uint64_t inv = c;
    for (int i = 0; i < 6; ++i) inv *= 2 - c * inv;
    return inv;
  };
  std::uint64_t z = unshift(draw, 31);
  z = unshift(z * inverse(0x94d049bb133111ebULL), 27);
  z = unshift(z * inverse(0xbf58476d1ce4e5b9ULL), 30);
  return util::SplitMix64(z - 0x9e3779b97f4a7c15ULL);
}

const double kMutationRates[] = {std::numeric_limits<double>::denorm_min(),
                                 0x1.0p-53,
                                 1.0 / 627.0,
                                 0.5,
                                 std::nextafter(0.5, 1.0),
                                 1.0};

TEST(Genotype, CrossoverAndMutationMatchTheChanceOracles) {
  EXPECT_EQ(GeneratorDrawingNext(0x0123456789abcdefULL)(),
            0x0123456789abcdefULL);
  util::SplitMix64 rng(626);
  for (const std::size_t n : {0, 1, 63, 64, 65, 627, 2000}) {
    const Genotype a = RandomGenotype(n, rng);
    const Genotype b = RandomGenotype(n, rng);
    util::SplitMix64 ours = rng;
    util::SplitMix64 oracle = rng;
    const Genotype child = UniformCrossover(a, b, ours);
    const Genotype expected = OracleUniformCrossover(a, b, oracle);
    EXPECT_EQ(child.priorities, expected.priorities) << n;
    EXPECT_EQ(child.phases, expected.phases) << n;
    EXPECT_EQ(ours(), oracle()) << n;

    const double rates[] = {kMutationRates[0], kMutationRates[1],
                            kMutationRates[2], kMutationRates[3],
                            kMutationRates[4], kMutationRates[5],
                            0.0,               -1.0,
                            std::nan(""),      1.5};
    for (const double rate : rates) {
      Genotype mutated = child;
      Genotype expected_mutated = child;
      Mutate(mutated, rate, ours);
      OracleMutate(expected_mutated, rate, oracle);
      EXPECT_EQ(mutated.priorities, expected_mutated.priorities)
          << n << " genes, rate " << rate;
      EXPECT_EQ(mutated.phases, expected_mutated.phases)
          << n << " genes, rate " << rate;
      EXPECT_EQ(ours(), oracle()) << n << " genes, rate " << rate;
    }
  }
}

TEST(Genotype, CrossoverAndMutationMatchTheOraclesAtTheirThresholds) {
  // Crossover: draws either side of 2^63, where Chance(0.5) turns false.
  const Genotype a = {{0.25}, {0}};
  const Genotype b = {{0.75}, {1}};
  for (std::uint64_t draw = (1ull << 63) - 3; draw != (1ull << 63) + 3;
       ++draw) {
    util::SplitMix64 ours = GeneratorDrawingNext(draw);
    util::SplitMix64 oracle = ours;
    const Genotype child = UniformCrossover(a, b, ours);
    const Genotype expected = OracleUniformCrossover(a, b, oracle);
    EXPECT_EQ(child.priorities, expected.priorities) << draw;
    EXPECT_EQ(child.phases, expected.phases) << draw;
  }

  // Mutation: draws whose top 53 bits lie within 3 of rate * 2^53, where
  // Chance(rate) turns false, with random low bits.
  util::SplitMix64 low(53);
  for (const double rate : kMutationRates) {
    const auto scaled = static_cast<std::uint64_t>(rate * 0x1.0p53);
    for (std::uint64_t k = scaled > 3 ? scaled - 3 : 0;
         k <= scaled + 3 && k < (1ull << 53); ++k) {
      const std::uint64_t draw = (k << 11) | (low() >> 53);
      util::SplitMix64 ours = GeneratorDrawingNext(draw);
      util::SplitMix64 oracle = ours;
      Genotype mutated = a;
      Genotype expected = a;
      Mutate(mutated, rate, ours);
      OracleMutate(expected, rate, oracle);
      EXPECT_EQ(mutated.priorities, expected.priorities)
          << "rate " << rate << ", draw " << draw;
      EXPECT_EQ(mutated.phases, expected.phases)
          << "rate " << rate << ", draw " << draw;
      EXPECT_EQ(ours(), oracle()) << "rate " << rate << ", draw " << draw;
    }
  }
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

  ParetoArchive archive;
  const auto result = nsga2.Run(testing::Archived(evaluator, archive), 4000);
  EXPECT_EQ(result.evaluations, 4000u);
  ASSERT_GT(archive.Size(), 5u);

  // The Pareto set is x in [0, 2]; on it sqrt(f1) + sqrt(f2) = 2, and
  // min(f1 + f2) = 2 (attained at x = 1).
  double best_sum = 1e9;
  for (const auto& e : archive.Entries()) {
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
  ParetoArchive archive;
  const auto result = nsga2.Run(testing::Archived(evaluator, archive), 500);
  EXPECT_EQ(result.evaluations, 500u);
  EXPECT_GE(archive.Size(), 1u);
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
  ParetoArchive fa, fb;
  a.Run(testing::Archived(evaluator, fa), 300);
  b.Run(testing::Archived(evaluator, fb), 300);
  ASSERT_EQ(fa.Size(), fb.Size());
  for (std::size_t i = 0; i < fa.Size(); ++i) {
    EXPECT_EQ(fa.Entries()[i].objectives, fb.Entries()[i].objectives);
  }
}

// Every feasible row must have the size of the first: NSGA-II ranks a flat
// row-major buffer, and SPEA2 compares rows pairwise.
TEST(Algorithm, RowsOfTwoSizesThrow) {
  AlgorithmConfig cfg;
  cfg.population_size = 8;
  cfg.genotype_size = 8;
  int calls = 0;
  const Evaluator evaluator =
      [&](const Genotype&) -> std::optional<ObjectiveVector> {
    ++calls;  // The 12th call is in the first offspring batch.
    if (calls == 12) return ObjectiveVector{1.0, 2.0, 3.0};
    return ObjectiveVector{static_cast<double>(calls), 0.0};
  };
  EXPECT_THROW(Nsga2(cfg).Run(evaluator, 100), std::invalid_argument);
  calls = 0;
  EXPECT_THROW(Spea2(cfg).Run(evaluator, 100), std::invalid_argument);
}

}  // namespace
}  // namespace bistdse::moea
