// The exploration's configuration and result: an MOEA (NSGA-II or SPEA2
// behind the shared moea::Algorithm interface) over SAT-decoding genotypes —
// the full design flow of paper Fig. 2. dse::ExploreParallel
// (dse/parallel.hpp) is the one way to run it; one island is the serial
// case.
#pragma once

#include <cstdint>
#include <vector>

#include "dse/decoder.hpp"
#include "dse/objectives.hpp"
#include "moea/algorithm.hpp"

namespace bistdse::dse {

/// The exploration's MOEA (see moea/algorithm.hpp for the name parsers).
using MoeaAlgorithm = moea::AlgorithmKind;

struct ExplorationConfig {
  MoeaAlgorithm algorithm = MoeaAlgorithm::Nsga2;
  /// Evaluation budget per island.
  std::size_t evaluations = 20000;
  std::size_t population_size = 100;
  /// Per-gene mutation probability; <= 0 selects the MOEA's 1/n default.
  /// Plumbed through moea::AlgorithmConfig, so every algorithm honors it.
  double mutation_rate = -1.0;
  /// Seed of island 0; island i runs with seed + i.
  std::uint64_t seed = 1;
  /// Validate every decoded implementation against the full constraint
  /// system (Eqs. 2a-2h, 3a, 3b). Costs ~10 % throughput; throws on the
  /// first violation, so it doubles as an internal consistency check.
  bool validate_each_decode = false;
  /// Seed the initial population with design-space corners (no BIST at all;
  /// fastest profile stored locally everywhere; cheapest and best profiles
  /// shared at the gateway), guaranteeing the front spans the whole quality
  /// axis from the first generation.
  bool seed_corners = true;
  /// Objective-evaluation options (e.g. CAN FD mirrored downloads).
  EvaluationOptions evaluation;
  /// How many of an island's decoder shards (kDecoderShards, see
  /// dse/evaluation_engine.hpp), and how many chunks of its objective
  /// evaluation, run at once on the shared pool: 0 = the pool's width, 1 =
  /// one after another on the island's thread. The Pareto front, the memo
  /// hits and the decoder counters are identical for every value.
  std::size_t threads = 0;
  /// Adds transition-test quality as a fourth minimized objective
  /// (Objectives::ToMinimizationVector(true)); requires profiles carrying
  /// transition_coverage_percent.
  bool include_transition_quality = false;
};

struct ExplorationEntry {
  Objectives objectives;
  model::Implementation implementation;
};

struct ExplorationResult {
  /// Pareto-optimal implementations (non-dominated in all objectives),
  /// merged over the islands.
  std::vector<ExplorationEntry> pareto;
  /// Evaluations spent, summed over islands.
  std::size_t evaluations = 0;
  /// Evaluations answered from an island's implementation-signature memo
  /// instead of a full objective evaluation (SAT decoding regularly
  /// reproduces the same implementation from different genotypes), summed
  /// over islands.
  std::size_t eval_cache_hits = 0;
  double wall_seconds = 0.0;
  /// Decoder statistics summed over islands.
  DecoderStats decoder_stats;

  /// Evaluated implementations per second (all islands).
  double Throughput() const {
    return wall_seconds > 0 ? static_cast<double>(evaluations) / wall_seconds
                            : 0.0;
  }
};

}  // namespace bistdse::dse
