// The one way to run an exploration. Islands are independent explorations
// with distinct seeds, run as tasks on the shared util::ThreadPool; their
// archives merge into one non-dominated front. This is how the
// reproduction uses the paper's "8-core Intel Core i7" — SAT decoding stays
// single-threaded per island, so every island remains bit-deterministic.
// One island is the serial exploration.
#pragma once

#include <cstdint>

#include "dse/exploration.hpp"

namespace bistdse::dse {

/// Kept as a second name of the exploration's result type.
using ParallelResult = ExplorationResult;

/// Runs `islands` explorations (0 counts as 1) with seeds config.seed,
/// config.seed+1, ... on up to `islands` pool threads and merges their
/// fronts. Each island builds its own EvaluationEngine (decoder and memo)
/// inside its task. `config.evaluations` is the per-island budget.
/// Deterministic regardless of scheduling: islands share nothing, and the
/// merge offers the island fronts in seed order, each in archive order.
/// Throws std::invalid_argument when the MOEA settings are invalid
/// (moea::AlgorithmConfig::Validate).
ExplorationResult ExploreParallel(const model::Specification& spec,
                                  const model::BistAugmentation& augmentation,
                                  const ExplorationConfig& config,
                                  std::size_t islands);

}  // namespace bistdse::dse
