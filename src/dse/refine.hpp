// Memetic post-processing of an exploration front: implementation-level
// local moves that the gene-level MOEA reaches only slowly — switching one
// ECU's profile, toggling one pattern store between ECU and gateway, or
// dropping one BIST program. Neighbors are validated and offered to the
// Pareto archive; accepted points are refined further (budgeted).
//
// This is an *extension* over the paper's flow (a standard memetic layer on
// top of SAT-decoding); bench_convergence quantifies its effect.
#pragma once

#include <cstdint>

#include "dse/exploration.hpp"

namespace bistdse::dse {

struct RefineOptions {
  std::size_t max_evaluations = 10000;
  std::uint64_t seed = 1;
};

struct RefineResult {
  std::vector<ExplorationEntry> pareto;  ///< Refined non-dominated set.
  std::size_t evaluations = 0;           ///< Neighbor evaluations spent.
  std::size_t improvements = 0;          ///< Archive acceptances.
};

/// Refines `front` (e.g. ExplorationResult::pareto) by local search. The
/// neighbours are scored as `exploration`, the configuration that produced
/// `front`, scored its points: under its `evaluation` options and in the
/// objective layout of its `include_transition_quality`.
RefineResult RefineFront(const model::Specification& spec,
                         const model::BistAugmentation& augmentation,
                         std::span<const ExplorationEntry> front,
                         const ExplorationConfig& exploration,
                         const RefineOptions& options = {});

}  // namespace bistdse::dse
