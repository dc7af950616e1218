// The exploration driver: an MOEA (NSGA-II or SPEA2 behind the shared
// moea::Algorithm interface) over SAT-decoding genotypes, evaluated through
// the shared dse::EvaluationEngine — the full design flow of paper Fig. 2.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "dse/decoder.hpp"
#include "dse/evaluation_engine.hpp"
#include "dse/objectives.hpp"
#include "moea/algorithm.hpp"

namespace bistdse::dse {

/// The exploration's MOEA (see moea/algorithm.hpp for the name parsers).
using MoeaAlgorithm = moea::AlgorithmKind;

struct ExplorationConfig {
  MoeaAlgorithm algorithm = MoeaAlgorithm::Nsga2;
  std::size_t evaluations = 20000;
  std::size_t population_size = 100;
  /// Per-gene mutation probability; <= 0 selects the MOEA's 1/n default.
  /// Plumbed through moea::AlgorithmConfig, so every algorithm honors it.
  double mutation_rate = -1.0;
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
  /// Stop early when the archive accepts no new point for this many
  /// consecutive generations (0 = run the full evaluation budget).
  std::size_t stagnation_generations = 0;
  /// Objective-evaluation options (e.g. CAN FD mirrored downloads).
  EvaluationOptions evaluation;
  /// Parallelism of batched objective evaluation (EvaluationEngineConfig::
  /// threads): 1 = strictly serial, 0 = one chunk per pool worker. The
  /// Pareto front is bit-identical for every value.
  std::size_t threads = 1;
  /// Objective pipeline; empty selects DefaultStages(false).
  /// `DefaultStages(true)` adds transition-test quality as a fourth
  /// objective (requires profiles carrying transition_coverage_percent).
  StageList stages;
};

struct ExplorationEntry {
  Objectives objectives;
  model::Implementation implementation;
};

struct ExplorationResult {
  /// Pareto-optimal implementations (non-dominated in all objectives).
  std::vector<ExplorationEntry> pareto;
  std::size_t evaluations = 0;
  /// Evaluations answered from the engine's implementation-signature memo
  /// instead of a full objective evaluation (SAT decoding regularly
  /// reproduces the same implementation from different genotypes).
  std::size_t eval_cache_hits = 0;
  double wall_seconds = 0.0;
  DecoderStats decoder_stats;

  /// Evaluated implementations per second.
  double Throughput() const {
    return wall_seconds > 0 ? static_cast<double>(evaluations) / wall_seconds
                            : 0.0;
  }
};

class Explorer {
 public:
  /// Owns a private EvaluationEngine configured from `config`.
  /// `spec`/`augmentation` must outlive the explorer.
  Explorer(const model::Specification& spec,
           const model::BistAugmentation& augmentation,
           ExplorationConfig config);

  /// Shares `engine` (and its memo/stages/options) with other explorations —
  /// the island-parallel path. The engine's evaluation settings win over the
  /// corresponding ExplorationConfig fields; `engine` must outlive the
  /// explorer.
  Explorer(EvaluationEngine& engine, ExplorationConfig config);

  ExplorationResult Run(const moea::GenerationCallback& on_generation = {});

  EvaluationEngine& Engine() { return *engine_; }

 private:
  std::unique_ptr<EvaluationEngine> owned_engine_;
  EvaluationEngine* engine_;
  ExplorationConfig config_;
};

}  // namespace bistdse::dse
