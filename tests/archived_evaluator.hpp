// The MOEA algorithms keep no archive: a test that checks the front a run
// explored offers its evaluator's results to an archive it owns.
#pragma once

#include <utility>

#include "moea/algorithm.hpp"
#include "moea/archive.hpp"

namespace bistdse::testing {

/// `evaluator`, offering every feasible result to `archive` in evaluation
/// order.
inline moea::Evaluator Archived(moea::Evaluator evaluator,
                                moea::ParetoArchive& archive) {
  return [evaluator = std::move(evaluator),
          &archive](const moea::Genotype& genotype) {
    auto objectives = evaluator(genotype);
    if (objectives) archive.Offer(*objectives, archive.Size());
    return objectives;
  };
}

}  // namespace bistdse::testing
