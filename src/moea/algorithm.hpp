// The common MOEA surface: every algorithm (NSGA-II, SPEA2) runs genotypes
// through an evaluator until an evaluation budget is spent and returns the
// global non-dominated archive. Consumers program against this interface —
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

#include "moea/archive.hpp"
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

/// Per-generation observer (generation index, evaluations so far, archive).
using GenerationCallback =
    std::function<void(std::size_t, std::size_t, const ParetoArchive&)>;

struct MoeaResult {
  /// All non-dominated points seen; each payload is the index of the
  /// evaluation that produced the point.
  ParetoArchive archive;
  std::size_t evaluations = 0;
};

enum class AlgorithmKind : std::uint8_t { Nsga2, Spea2 };

const char* AlgorithmName(AlgorithmKind kind);
std::optional<AlgorithmKind> ParseAlgorithmName(const std::string& name);

/// One configuration for every algorithm — a single plumbing path, so a knob
/// (e.g. mutation_rate) cannot be honored by one algorithm and dropped by
/// another.
struct AlgorithmConfig {
  std::size_t population_size = 100;
  /// SPEA2 environmental-archive capacity; 0 = population_size. Ignored by
  /// NSGA-II.
  std::size_t archive_size = 0;
  std::size_t genotype_size = 0;  ///< Genes per genotype (required).
  double crossover_rate = 0.9;
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
  /// set, population_size >= 2, archive_size 0 or >= 2, mutation_rate <= 1.
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
  /// updates `result` (evaluation count, archive) and hands each feasible
  /// (genotype, objectives) pair to `accept`.
  static void EvaluateBatch(
      const BatchEvaluator& evaluator, std::vector<Genotype> batch,
      MoeaResult& result,
      const std::function<void(Genotype&&, const ObjectiveVector&)>& accept);
};

/// Factory behind the one-interface design: maps (kind, config) to a
/// concrete algorithm.
std::unique_ptr<Algorithm> MakeAlgorithm(AlgorithmKind kind,
                                         AlgorithmConfig config);

}  // namespace bistdse::moea
