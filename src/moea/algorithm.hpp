// The common MOEA surface: every algorithm (NSGA-II, SPEA2) runs genotypes
// through an evaluator until an evaluation budget is spent. The algorithms
// keep no archive: a caller that wants the non-dominated set offers its
// evaluator's results to a ParetoArchive it owns (moea/archive.hpp), in
// evaluation order. Consumers program against this interface —
// the exploration layer selects an algorithm via MakeAlgorithm() instead of
// dispatching on an enum itself.
//
// Evaluation is *population-shaped*: algorithms hand a BatchEvaluator whole
// batches of genotypes (one offspring generation at a time). An evaluator
// that can evaluate a batch in parallel (the EvaluationEngine does) gets its
// parallelism for free; Run(const Evaluator&) adapts a per-genotype
// evaluator. Batches preserve sequential semantics: genotypes are generated
// before the batch is submitted and results are consumed in genotype order,
// so a run is bit-identical to evaluating one-by-one.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "moea/dominance.hpp"
#include "moea/genotype.hpp"

namespace bistdse::moea {

/// Evaluator: decodes + evaluates one genotype. nullopt = evaluation failed
/// (e.g. the SAT decoder proved the instance infeasible) — such individuals
/// are discarded from selection.
using Evaluator = std::function<std::optional<ObjectiveVector>(const Genotype&)>;

/// Batch evaluator: results[i] corresponds to genotypes[i]. Must behave as
/// if the genotypes were evaluated sequentially in order (the engine's
/// batched path parallelizes internally but reports in order).
using BatchEvaluator = std::function<std::vector<std::optional<ObjectiveVector>>(
    std::span<const Genotype>)>;

/// Per-generation observer (generation index, evaluations so far).
using GenerationCallback = std::function<void(std::size_t, std::size_t)>;

struct MoeaResult {
  std::size_t evaluations = 0;
  /// Objectives per row, fixed by the first feasible evaluation. A row of
  /// another size throws std::invalid_argument: NSGA-II ranks a flat
  /// row-major buffer.
  std::optional<std::size_t> dimensions;
};

/// Probability that an offspring is bred by crossover rather than copied
/// from one parent. The draw is made either way.
inline constexpr double kCrossoverRate = 0.9;

enum class AlgorithmKind : std::uint8_t { Nsga2, Spea2 };

const char* AlgorithmName(AlgorithmKind kind);
std::optional<AlgorithmKind> ParseAlgorithmName(const std::string& name);

/// One configuration for every algorithm — a single plumbing path, so a knob
/// (e.g. mutation_rate) cannot be honored by one algorithm and dropped by
/// another.
struct AlgorithmConfig {
  /// Individuals per generation; SPEA2's environmental archive holds as
  /// many.
  std::size_t population_size = 100;
  std::size_t genotype_size = 0;  ///< Genes per genotype (required).
  /// Per-gene mutation probability; <= 0 selects the 1/n default.
  double mutation_rate = -1.0;
  /// Draw a per-individual phase bias uniformly in [0,1] for the initial
  /// population (instead of a fixed 1/2), spreading it over the selection-
  /// density spectrum of optional design elements.
  bool biased_phase_init = true;
  std::uint64_t seed = 1;
  /// Genotypes injected into the initial population before random ones
  /// (problem-knowledge seeding, e.g. design-space corners).
  std::vector<Genotype> initial_genotypes;

  /// Throws std::invalid_argument naming the field: genotype_size must be
  /// set, population_size >= 2, mutation_rate <= 1.
  void Validate() const;
};

class Algorithm {
 public:
  virtual ~Algorithm() = default;

  /// Runs until `max_evaluations` genotypes have been evaluated.
  virtual MoeaResult Run(const BatchEvaluator& evaluator,
                         std::size_t max_evaluations,
                         const GenerationCallback& on_generation = {}) = 0;

  /// Adapter for a per-genotype evaluator: batches are evaluated one
  /// genotype after another, in order.
  MoeaResult Run(const Evaluator& evaluator, std::size_t max_evaluations,
                 const GenerationCallback& on_generation = {});

 protected:
  /// Shared batched-evaluation step: evaluates `batch` in genotype order,
  /// updates `result` (evaluation count, dimensions) and hands each feasible
  /// (genotype, objectives) pair to `accept`. Throws std::invalid_argument
  /// on a row whose size differs from the first feasible row's.
  static void EvaluateBatch(
      const BatchEvaluator& evaluator, std::vector<Genotype> batch,
      MoeaResult& result,
      const std::function<void(Genotype&&, const ObjectiveVector&)>& accept);

  /// Shared initial-population step: evaluates config.initial_genotypes,
  /// then random genotypes drawn from `rng` (a phase bias per genotype when
  /// config.biased_phase_init), until `accept` has taken
  /// config.population_size genotypes or `max_evaluations` are spent.
  /// Genotype generation never depends on evaluation results, so whole
  /// batches are drawn up front and evaluated together without changing the
  /// RNG stream. Throws std::invalid_argument on a seeded genotype of the
  /// wrong size, and std::runtime_error naming `kind` when the evaluator
  /// rejects nearly every random genotype.
  static void EvaluateInitialPopulation(
      AlgorithmKind kind, const AlgorithmConfig& config,
      const BatchEvaluator& evaluator, std::size_t max_evaluations,
      util::SplitMix64& rng, MoeaResult& result,
      const std::function<void(Genotype&&, const ObjectiveVector&)>& accept);
};

/// Factory behind the one-interface design: maps (kind, config) to a
/// concrete algorithm.
std::unique_ptr<Algorithm> MakeAlgorithm(AlgorithmKind kind,
                                         AlgorithmConfig config);

}  // namespace bistdse::moea
