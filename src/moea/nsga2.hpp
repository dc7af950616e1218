// NSGA-II multi-objective evolutionary algorithm (Deb et al., 2002) over
// SAT-decoding genotypes. All objectives are minimized. Offspring are
// evaluated one generation at a time through the BatchEvaluator (see
// moea/algorithm.hpp) — bit-identical to per-genotype evaluation.
#pragma once

#include <span>
#include <vector>

#include "moea/algorithm.hpp"
#include "moea/dominance.hpp"
#include "moea/genotype.hpp"

namespace bistdse::moea {

class Nsga2 : public Algorithm {
 public:
  /// Throws std::invalid_argument on an invalid config
  /// (AlgorithmConfig::Validate).
  explicit Nsga2(AlgorithmConfig config);

  using Algorithm::Run;
  MoeaResult Run(const BatchEvaluator& evaluator,
                 std::size_t max_evaluations,
                 const GenerationCallback& on_generation = {}) override;

 private:
  AlgorithmConfig config_;
};

}  // namespace bistdse::moea
