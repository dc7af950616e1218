// SPEA2 (Zitzler/Laumanns/Thiele, 2001): strength-Pareto evolutionary
// algorithm with k-th-nearest-neighbor density and archive truncation — a
// second MOEA besides NSGA-II, implementing the same moea::Algorithm
// interface so explorations can swap algorithms.
#pragma once

#include <vector>

#include "moea/algorithm.hpp"

namespace bistdse::moea {

class Spea2 : public Algorithm {
 public:
  /// Throws std::invalid_argument on an invalid config
  /// (AlgorithmConfig::Validate). The environmental archive holds
  /// population_size individuals.
  explicit Spea2(AlgorithmConfig config);

  /// Runs until `max_evaluations` evaluator calls (same semantics as
  /// Nsga2::Run).
  using Algorithm::Run;
  MoeaResult Run(const BatchEvaluator& evaluator,
                 std::size_t max_evaluations,
                 const GenerationCallback& on_generation = {}) override;

 private:
  struct Individual {
    Genotype genotype;
    ObjectiveVector objectives;
    double fitness = 0.0;  ///< Raw fitness + density (lower is better).
  };

  /// SPEA2 fitness: strength-based raw fitness plus 1/(2 + k-NN distance).
  static void AssignFitness(std::vector<Individual>& pool);
  /// Environmental selection into the bounded archive (truncation by
  /// nearest-neighbor distance).
  static std::vector<Individual> SelectArchive(std::vector<Individual> pool,
                                               std::size_t capacity);

  AlgorithmConfig config_;
};

}  // namespace bistdse::moea
