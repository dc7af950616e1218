#include "moea/algorithm.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "moea/nsga2.hpp"
#include "moea/spea2.hpp"

namespace bistdse::moea {

const char* AlgorithmName(AlgorithmKind kind) {
  switch (kind) {
    case AlgorithmKind::Nsga2:
      return "nsga2";
    case AlgorithmKind::Spea2:
      return "spea2";
  }
  return "?";
}

std::optional<AlgorithmKind> ParseAlgorithmName(const std::string& name) {
  if (name == "nsga2" || name == "nsga-ii" || name == "nsga-2") {
    return AlgorithmKind::Nsga2;
  }
  if (name == "spea2" || name == "spea-2") return AlgorithmKind::Spea2;
  return std::nullopt;
}

void AlgorithmConfig::Validate() const {
  if (genotype_size == 0)
    throw std::invalid_argument("genotype_size must be set");
  if (population_size < 2)
    throw std::invalid_argument("population_size must be >= 2 (got " +
                                std::to_string(population_size) + ")");
  if (archive_size == 1)
    throw std::invalid_argument("archive_size must be 0 or >= 2 (got 1)");
  // Written so that NaN fails too; <= 0 selects the 1/n default.
  if (!(mutation_rate <= 1.0))
    throw std::invalid_argument("mutation_rate must be <= 1 (got " +
                                std::to_string(mutation_rate) + ")");
}

MoeaResult Algorithm::Run(const Evaluator& evaluator,
                          std::size_t max_evaluations,
                          const GenerationCallback& on_generation) {
  const BatchEvaluator batch =
      [&evaluator](std::span<const Genotype> genotypes) {
        std::vector<std::optional<ObjectiveVector>> results;
        results.reserve(genotypes.size());
        for (const Genotype& genotype : genotypes) {
          results.push_back(evaluator(genotype));
        }
        return results;
      };
  return Run(batch, max_evaluations, on_generation);
}

void Algorithm::EvaluateBatch(
    const BatchEvaluator& evaluator, std::vector<Genotype> batch,
    MoeaResult& result,
    const std::function<void(Genotype&&, const ObjectiveVector&)>& accept) {
  const auto objectives = evaluator(batch);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const std::size_t evaluation = result.evaluations++;
    if (!objectives[i]) continue;
    result.archive.Offer(*objectives[i], evaluation);
    accept(std::move(batch[i]), *objectives[i]);
  }
}

void Algorithm::EvaluateInitialPopulation(
    AlgorithmKind kind, const AlgorithmConfig& config,
    const BatchEvaluator& evaluator, std::size_t max_evaluations,
    util::SplitMix64& rng, MoeaResult& result,
    const std::function<void(Genotype&&, const ObjectiveVector&)>& accept) {
  std::size_t accepted = 0;
  const auto count = [&](Genotype&& genotype,
                         const ObjectiveVector& objectives) {
    ++accepted;
    accept(std::move(genotype), objectives);
  };
  // Seeded genotypes first, then random ones (failed evaluations are redrawn
  // up to a sanity bound).
  std::size_t next_seeded = 0;
  while (next_seeded < config.initial_genotypes.size() &&
         accepted < config.population_size &&
         result.evaluations < max_evaluations) {
    std::vector<Genotype> batch;
    const std::size_t want =
        std::min({config.initial_genotypes.size() - next_seeded,
                  config.population_size - accepted,
                  max_evaluations - result.evaluations});
    for (std::size_t i = 0; i < want; ++i) {
      const Genotype& seeded = config.initial_genotypes[next_seeded++];
      if (seeded.Size() != config.genotype_size)
        throw std::invalid_argument("seeded genotype size mismatch");
      batch.push_back(seeded);
    }
    EvaluateBatch(evaluator, std::move(batch), result, count);
  }
  std::size_t attempts = 0;
  while (accepted < config.population_size &&
         result.evaluations < max_evaluations) {
    std::vector<Genotype> batch;
    const std::size_t want = std::min(config.population_size - accepted,
                                      max_evaluations - result.evaluations);
    for (std::size_t i = 0; i < want; ++i) {
      const double bias = config.biased_phase_init ? rng.UnitReal() : 0.5;
      batch.push_back(RandomGenotypeBiased(config.genotype_size, bias, rng));
    }
    EvaluateBatch(evaluator, std::move(batch), result, count);
    attempts += want;
    if (attempts > 50 * config.population_size) {
      throw std::runtime_error(
          std::string(AlgorithmName(kind)) +
          ": evaluator rejects nearly every random genotype");
    }
  }
}

std::unique_ptr<Algorithm> MakeAlgorithm(AlgorithmKind kind,
                                         AlgorithmConfig config) {
  switch (kind) {
    case AlgorithmKind::Nsga2:
      return std::make_unique<Nsga2>(std::move(config));
    case AlgorithmKind::Spea2:
      return std::make_unique<Spea2>(std::move(config));
  }
  throw std::invalid_argument("unknown MOEA algorithm kind");
}

}  // namespace bistdse::moea
