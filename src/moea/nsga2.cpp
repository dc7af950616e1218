#include "moea/nsga2.hpp"

#include <algorithm>
#include <stdexcept>

namespace bistdse::moea {

Nsga2::Nsga2(AlgorithmConfig config) : config_(std::move(config)) {
  config_.Validate();
  if (config_.mutation_rate <= 0.0) {
    config_.mutation_rate = 1.0 / static_cast<double>(config_.genotype_size);
  }
}

Nsga2::Individual& Nsga2::Tournament(std::vector<Individual>& pop,
                                     util::SplitMix64& rng,
                                     std::span<const std::size_t> ranks,
                                     std::span<const double> crowding) {
  const std::size_t a = rng.Below(pop.size());
  const std::size_t b = rng.Below(pop.size());
  if (ranks[a] != ranks[b]) return pop[ranks[a] < ranks[b] ? a : b];
  return pop[crowding[a] >= crowding[b] ? a : b];
}

MoeaResult Nsga2::Run(const BatchEvaluator& evaluator,
                      std::size_t max_evaluations,
                      const GenerationCallback& on_generation) {
  util::SplitMix64 rng(config_.seed);
  MoeaResult result;

  // Initial population: seeded genotypes first, then random ones (failed
  // evaluations are redrawn up to a sanity bound). Genotype generation never
  // depends on evaluation results, so whole batches can be drawn up front
  // and evaluated together without changing the RNG stream.
  std::vector<Individual> population;
  const auto accept = [&population](Genotype&& genotype,
                                    const ObjectiveVector& objectives) {
    population.push_back({std::move(genotype), objectives});
  };
  std::size_t next_seeded = 0;
  while (next_seeded < config_.initial_genotypes.size() &&
         population.size() < config_.population_size &&
         result.evaluations < max_evaluations) {
    std::vector<Genotype> batch;
    const std::size_t want =
        std::min({config_.initial_genotypes.size() - next_seeded,
                  config_.population_size - population.size(),
                  max_evaluations - result.evaluations});
    for (std::size_t i = 0; i < want; ++i) {
      const Genotype& seeded = config_.initial_genotypes[next_seeded++];
      if (seeded.Size() != config_.genotype_size)
        throw std::invalid_argument("seeded genotype size mismatch");
      batch.push_back(seeded);
    }
    EvaluateBatch(evaluator, std::move(batch), result, accept);
  }
  std::size_t attempts = 0;
  while (population.size() < config_.population_size &&
         result.evaluations < max_evaluations) {
    std::vector<Genotype> batch;
    const std::size_t want =
        std::min(config_.population_size - population.size(),
                 max_evaluations - result.evaluations);
    for (std::size_t i = 0; i < want; ++i) {
      const double bias = config_.biased_phase_init ? rng.UnitReal() : 0.5;
      batch.push_back(RandomGenotypeBiased(config_.genotype_size, bias, rng));
    }
    EvaluateBatch(evaluator, std::move(batch), result, accept);
    attempts += want;
    if (attempts > 50 * config_.population_size) {
      throw std::runtime_error(
          "NSGA-II: evaluator rejects nearly every random genotype");
    }
  }

  std::size_t generation = 0;
  while (result.evaluations < max_evaluations && population.size() >= 2) {
    // Rank + crowding of the current population.
    std::vector<ObjectiveVector> points;
    points.reserve(population.size());
    for (const Individual& ind : population) points.push_back(ind.objectives);
    const auto fronts = FastNonDominatedSort(points);
    std::vector<std::size_t> ranks(population.size(), 0);
    std::vector<double> crowding(population.size(), 0.0);
    for (std::size_t f = 0; f < fronts.size(); ++f) {
      const auto cd = CrowdingDistance(points, fronts[f]);
      for (std::size_t i = 0; i < fronts[f].size(); ++i) {
        ranks[fronts[f][i]] = f;
        crowding[fronts[f][i]] = cd[i];
      }
    }

    // Variation: binary tournaments, uniform crossover, mutation. Selection
    // reads only the parent population, so one generation's offspring form
    // one evaluation batch.
    std::vector<Individual> offspring;
    const auto accept_offspring = [&offspring](Genotype&& genotype,
                                               const ObjectiveVector& objectives) {
      offspring.push_back({std::move(genotype), objectives});
    };
    while (offspring.size() < config_.population_size &&
           result.evaluations < max_evaluations) {
      std::vector<Genotype> batch;
      const std::size_t want =
          std::min(config_.population_size - offspring.size(),
                   max_evaluations - result.evaluations);
      for (std::size_t i = 0; i < want; ++i) {
        const Individual& p1 = Tournament(population, rng, ranks, crowding);
        const Individual& p2 = Tournament(population, rng, ranks, crowding);
        Genotype child = rng.Chance(config_.crossover_rate)
                             ? UniformCrossover(p1.genotype, p2.genotype, rng)
                             : p1.genotype;
        Mutate(child, config_.mutation_rate, rng);
        batch.push_back(std::move(child));
      }
      EvaluateBatch(evaluator, std::move(batch), result, accept_offspring);
    }

    // Environmental selection over parents + offspring.
    std::vector<Individual> merged = std::move(population);
    for (Individual& ind : offspring) merged.push_back(std::move(ind));
    std::vector<ObjectiveVector> merged_points;
    merged_points.reserve(merged.size());
    for (const Individual& ind : merged) merged_points.push_back(ind.objectives);
    const auto merged_fronts = FastNonDominatedSort(merged_points);

    population.clear();
    for (const auto& front : merged_fronts) {
      if (population.size() + front.size() <= config_.population_size) {
        for (std::size_t i : front) population.push_back(std::move(merged[i]));
      } else {
        const auto cd = CrowdingDistance(merged_points, front);
        std::vector<std::size_t> order(front.size());
        for (std::size_t i = 0; i < front.size(); ++i) order[i] = i;
        std::sort(order.begin(), order.end(),
                  [&](std::size_t a, std::size_t b) { return cd[a] > cd[b]; });
        for (std::size_t i : order) {
          if (population.size() >= config_.population_size) break;
          population.push_back(std::move(merged[front[i]]));
        }
      }
      if (population.size() >= config_.population_size) break;
    }

    ++generation;
    if (on_generation) {
      on_generation(generation, result.evaluations, result.archive);
    }
  }
  return result;
}

}  // namespace bistdse::moea
