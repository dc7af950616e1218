#include "dse/parallel.hpp"

#include <chrono>

#include "moea/archive.hpp"
#include "util/thread_pool.hpp"

namespace bistdse::dse {

ParallelResult ExploreParallel(const model::Specification& spec,
                               const model::BistAugmentation& augmentation,
                               const ExplorationConfig& config,
                               std::size_t islands) {
  if (islands == 0) islands = 1;
  const auto start = std::chrono::steady_clock::now();

  // One engine for all islands: shared objective memo (cross-island cache
  // hits), one stage list, one set of evaluation options.
  EvaluationEngineConfig engine_config;
  engine_config.validate_each_decode = config.validate_each_decode;
  engine_config.threads = config.threads;
  engine_config.evaluation = config.evaluation;
  engine_config.stages = config.stages;
  EvaluationEngine engine(spec, augmentation, engine_config);

  // Islands run on the shared executor — the same pool the fault-simulation
  // layer uses — so stacking island parallelism on top of parallel objective
  // evaluation cannot oversubscribe the machine.
  std::vector<ExplorationResult> results(islands);
  util::ThreadPool::Global().ParallelFor(
      0, islands, islands,
      [&](std::size_t begin, std::size_t end, std::size_t /*slot*/) {
        for (std::size_t i = begin; i < end; ++i) {
          ExplorationConfig island_config = config;
          island_config.seed = config.seed + i;
          Explorer explorer(engine, island_config);
          results[i] = explorer.Run();
        }
      });

  // Deterministic merge: islands in seed order, entries in archive order.
  ParallelResult merged;
  moea::ParetoArchive archive;
  std::vector<const ExplorationEntry*> store;
  for (const auto& result : results) {
    merged.evaluations += result.evaluations;
    merged.eval_cache_hits += result.eval_cache_hits;
    merged.island_front_sizes.push_back(result.pareto.size());
    merged.decoder_stats.MergeFrom(result.decoder_stats);
    for (const auto& entry : result.pareto) {
      const auto vec = engine.Minimize(entry.objectives);
      if (archive.Offer(vec, store.size())) store.push_back(&entry);
    }
  }
  for (const auto& archived : archive.Entries()) {
    merged.pareto.push_back(*store[archived.payload]);
  }
  merged.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return merged;
}

}  // namespace bistdse::dse
