#include "moea/nsga2.hpp"

#include <algorithm>
#include <numeric>

namespace bistdse::moea {

namespace {

/// Genotypes with their objectives: genotype i's objectives are row i of
/// the row-major buffer that FastNonDominatedSort and CrowdingDistance read.
struct Population {
  std::vector<Genotype> genotypes;
  std::vector<double> objectives;
  /// Objectives per row. EvaluateBatch rejects a row whose size differs
  /// from the first row's.
  std::size_t dims = 0;

  std::size_t Size() const { return genotypes.size(); }

  void Add(Genotype&& genotype, std::span<const double> row) {
    genotypes.push_back(std::move(genotype));
    objectives.insert(objectives.end(), row.begin(), row.end());
    dims = row.size();
  }

  /// Moves individual i of `from` to the end.
  void Take(Population& from, std::size_t i) {
    Add(std::move(from.genotypes[i]),
        std::span<const double>(from.objectives)
            .subspan(i * from.dims, from.dims));
  }
};

/// Binary tournament among the ranks.size() parents: the lower rank wins,
/// then the larger crowding distance. Returns the winner's index.
std::size_t Tournament(util::SplitMix64& rng,
                       std::span<const std::size_t> ranks,
                       std::span<const double> crowding) {
  const std::size_t a = rng.Below(ranks.size());
  const std::size_t b = rng.Below(ranks.size());
  if (ranks[a] != ranks[b]) return ranks[a] < ranks[b] ? a : b;
  return crowding[a] >= crowding[b] ? a : b;
}

}  // namespace

Nsga2::Nsga2(AlgorithmConfig config) : config_(std::move(config)) {
  config_.Validate();
  if (config_.mutation_rate <= 0.0) {
    config_.mutation_rate = 1.0 / static_cast<double>(config_.genotype_size);
  }
}

MoeaResult Nsga2::Run(const BatchEvaluator& evaluator,
                      std::size_t max_evaluations,
                      const GenerationCallback& on_generation) {
  util::SplitMix64 rng(config_.seed);
  MoeaResult result;

  // Initial population: seeded genotypes first, then random ones.
  Population population;
  const auto accept = [&population](Genotype&& genotype,
                                    const ObjectiveVector& objectives) {
    population.Add(std::move(genotype), objectives);
  };
  EvaluateInitialPopulation(AlgorithmKind::Nsga2, config_, evaluator,
                            max_evaluations, rng, result, accept);

  std::size_t generation = 0;
  std::vector<std::size_t> ranks;
  std::vector<double> crowding;
  while (result.evaluations < max_evaluations && population.Size() >= 2) {
    // Rank + crowding of the current population.
    const std::size_t parents = population.Size();
    const auto fronts =
        FastNonDominatedSort(population.objectives, population.dims);
    ranks.assign(parents, 0);
    crowding.assign(parents, 0.0);
    for (std::size_t f = 0; f < fronts.size(); ++f) {
      const auto cd =
          CrowdingDistance(population.objectives, population.dims, fronts[f]);
      for (std::size_t i = 0; i < fronts[f].size(); ++i) {
        ranks[fronts[f][i]] = f;
        crowding[fronts[f][i]] = cd[i];
      }
    }

    // Variation: binary tournaments, uniform crossover, mutation. Selection
    // reads only the parents, so one generation's offspring form one
    // evaluation batch; the accepted ones join the population after them.
    while (population.Size() - parents < config_.population_size &&
           result.evaluations < max_evaluations) {
      std::vector<Genotype> batch;
      const std::size_t want =
          std::min(config_.population_size - (population.Size() - parents),
                   max_evaluations - result.evaluations);
      for (std::size_t i = 0; i < want; ++i) {
        const Genotype& p1 =
            population.genotypes[Tournament(rng, ranks, crowding)];
        const Genotype& p2 =
            population.genotypes[Tournament(rng, ranks, crowding)];
        Genotype child = rng.Chance(kCrossoverRate)
                             ? UniformCrossover(p1, p2, rng)
                             : p1;
        Mutate(child, config_.mutation_rate, rng);
        batch.push_back(std::move(child));
      }
      EvaluateBatch(evaluator, std::move(batch), result, accept);
    }

    // Environmental selection over parents + offspring.
    const auto merged_fronts =
        FastNonDominatedSort(population.objectives, population.dims);
    Population next;
    for (const auto& front : merged_fronts) {
      if (next.Size() + front.size() <= config_.population_size) {
        for (std::size_t i : front) next.Take(population, i);
      } else {
        const auto cd =
            CrowdingDistance(population.objectives, population.dims, front);
        std::vector<std::size_t> order(front.size());
        std::iota(order.begin(), order.end(), std::size_t{0});
        std::sort(order.begin(), order.end(),
                  [&](std::size_t a, std::size_t b) { return cd[a] > cd[b]; });
        for (std::size_t i : order) {
          if (next.Size() >= config_.population_size) break;
          next.Take(population, front[i]);
        }
      }
      if (next.Size() >= config_.population_size) break;
    }
    population = std::move(next);

    ++generation;
    if (on_generation) on_generation(generation, result.evaluations);
  }
  return result;
}

}  // namespace bistdse::moea
