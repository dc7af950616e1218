#include "moea/spea2.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace bistdse::moea {

namespace {

double Distance(const ObjectiveVector& a, const ObjectiveVector& b) {
  double sum = 0.0;
  for (std::size_t d = 0; d < a.size(); ++d) {
    const double diff = a[d] - b[d];
    sum += diff * diff;
  }
  return std::sqrt(sum);
}

}  // namespace

Spea2::Spea2(AlgorithmConfig config) : config_(std::move(config)) {
  config_.Validate();
  if (config_.mutation_rate <= 0.0) {
    config_.mutation_rate = 1.0 / static_cast<double>(config_.genotype_size);
  }
}

void Spea2::AssignFitness(std::vector<Individual>& pool) {
  const std::size_t n = pool.size();
  // Strength S(i): number of individuals i dominates.
  std::vector<std::size_t> strength(n, 0);
  std::vector<std::vector<std::size_t>> dominators(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      if (Dominates(pool[i].objectives, pool[j].objectives)) {
        ++strength[i];
        dominators[j].push_back(i);
      }
    }
  }
  // Raw fitness R(i): sum of strengths of i's dominators; density D(i):
  // 1 / (sigma_k + 2) with k = sqrt(n).
  const auto k = static_cast<std::size_t>(std::sqrt(static_cast<double>(n)));
  std::vector<double> dists;
  for (std::size_t i = 0; i < n; ++i) {
    double raw = 0.0;
    for (std::size_t d : dominators[i]) {
      raw += static_cast<double>(strength[d]);
    }
    dists.clear();
    for (std::size_t j = 0; j < n; ++j) {
      if (j != i) dists.push_back(Distance(pool[i].objectives, pool[j].objectives));
    }
    double sigma = 0.0;
    if (!dists.empty()) {
      const std::size_t kth = std::min(k, dists.size() - 1);
      std::nth_element(dists.begin(), dists.begin() + kth, dists.end());
      sigma = dists[kth];
    }
    pool[i].fitness = raw + 1.0 / (sigma + 2.0);
  }
}

std::vector<Spea2::Individual> Spea2::SelectArchive(
    std::vector<Individual> pool, std::size_t capacity) {
  // Non-dominated members (fitness < 1) first.
  std::vector<Individual> archive;
  std::vector<Individual> dominated;
  for (auto& ind : pool) {
    (ind.fitness < 1.0 ? archive : dominated).push_back(std::move(ind));
  }
  if (archive.size() < capacity) {
    // Fill with the best dominated individuals.
    std::sort(dominated.begin(), dominated.end(),
              [](const Individual& a, const Individual& b) {
                return a.fitness < b.fitness;
              });
    for (auto& ind : dominated) {
      if (archive.size() >= capacity) break;
      archive.push_back(std::move(ind));
    }
    return archive;
  }
  // Truncation: repeatedly remove the member with the smallest nearest-
  // neighbor distance (O(n^2) per removal is fine at these sizes).
  while (archive.size() > capacity) {
    std::size_t victim = 0;
    double victim_dist = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < archive.size(); ++i) {
      double nearest = std::numeric_limits<double>::infinity();
      for (std::size_t j = 0; j < archive.size(); ++j) {
        if (j != i) {
          nearest = std::min(
              nearest, Distance(archive[i].objectives, archive[j].objectives));
        }
      }
      if (nearest < victim_dist) {
        victim_dist = nearest;
        victim = i;
      }
    }
    archive.erase(archive.begin() + static_cast<std::ptrdiff_t>(victim));
  }
  return archive;
}

MoeaResult Spea2::Run(const BatchEvaluator& evaluator,
                      std::size_t max_evaluations,
                      const GenerationCallback& on_generation) {
  util::SplitMix64 rng(config_.seed);
  MoeaResult result;

  // As in Nsga2::Run, genotype generation is independent of evaluation
  // results, so seeds/offspring are drawn in batches and evaluated together
  // without changing the RNG stream.
  std::vector<Individual> population;
  const auto accept = [&population](Genotype&& genotype,
                                    const ObjectiveVector& objectives) {
    population.push_back({std::move(genotype), objectives, 0.0});
  };
  EvaluateInitialPopulation(AlgorithmKind::Spea2, config_, evaluator,
                            max_evaluations, rng, result, accept);

  std::vector<Individual> archive;
  std::size_t generation = 0;
  while (result.evaluations < max_evaluations &&
         population.size() + archive.size() >= 2) {
    std::vector<Individual> pool = std::move(population);
    for (Individual& ind : archive) pool.push_back(std::move(ind));
    AssignFitness(pool);
    archive = SelectArchive(std::move(pool), config_.population_size);

    auto tournament = [&]() -> const Individual& {
      const Individual& a = archive[rng.Below(archive.size())];
      const Individual& b = archive[rng.Below(archive.size())];
      return a.fitness <= b.fitness ? a : b;
    };

    population.clear();
    while (population.size() < config_.population_size &&
           result.evaluations < max_evaluations) {
      std::vector<Genotype> batch;
      const std::size_t want =
          std::min(config_.population_size - population.size(),
                   max_evaluations - result.evaluations);
      for (std::size_t i = 0; i < want; ++i) {
        Genotype child;
        if (rng.Chance(kCrossoverRate)) {
          // Both tournaments draw from `rng`, so their order is part of the
          // stream. The second parent's tournament runs first: the order
          // GCC gave the two arguments of one call, which the pinned
          // convergence results were made with. Named locals fix it for
          // every compiler.
          const Individual& second = tournament();
          const Individual& first = tournament();
          child = UniformCrossover(first.genotype, second.genotype, rng);
        } else {
          child = tournament().genotype;
        }
        Mutate(child, config_.mutation_rate, rng);
        batch.push_back(std::move(child));
      }
      EvaluateBatch(evaluator, std::move(batch), result, accept);
    }
    ++generation;
    if (on_generation) on_generation(generation, result.evaluations);
  }
  return result;
}

}  // namespace bistdse::moea
