#include "dse/parallel.hpp"

#include <chrono>
#include <functional>
#include <utility>

#include "dse/evaluation_engine.hpp"
#include "moea/archive.hpp"
#include "util/thread_pool.hpp"

namespace bistdse::dse {

namespace {

/// Corner genotypes: no BIST; per-ECU extreme profiles local/at-gateway.
/// Selector picks the program per ECU; `local` the b^D placement.
moea::Genotype CornerGenotype(
    const model::Specification& spec,
    const model::BistAugmentation& augmentation, std::size_t genes,
    bool any_bist, bool local,
    const std::function<bool(const model::ApplicationGraph&,
                             const model::BistProgram&,
                             const model::BistProgram&)>& better) {
  moea::Genotype g;
  g.priorities.assign(genes, 0.5);
  g.phases.assign(genes, 0);
  if (!any_bist) return g;
  const model::ResourceId gateway = spec.Architecture().Gateway();
  const auto& app = spec.Application();
  const auto mappings = spec.Mappings();
  for (const auto& [ecu, programs] : augmentation.programs_by_ecu) {
    if (programs.empty()) continue;
    const model::BistProgram* pick = &programs[0];
    for (const auto& prog : programs) {
      if (better(app, prog, *pick)) pick = &prog;
    }
    for (std::size_t m : spec.MappingsOfTask(pick->test_task)) {
      g.phases[m] = 1;
      g.priorities[m] = 0.9;
    }
    for (std::size_t m : spec.MappingsOfTask(pick->data_task)) {
      const bool is_local = mappings[m].resource != gateway;
      g.phases[m] = is_local == local ? 1 : 0;
      g.priorities[m] = is_local == local ? 0.8 : 0.1;
    }
  }
  return g;
}

/// The four corner genotypes ExplorationConfig::seed_corners injects.
std::vector<moea::Genotype> CornerGenotypes(
    const model::Specification& spec,
    const model::BistAugmentation& augmentation, std::size_t genes) {
  auto fastest = [](const model::ApplicationGraph& app,
                    const model::BistProgram& a, const model::BistProgram& b) {
    return app.GetTask(a.test_task).runtime_ms <
           app.GetTask(b.test_task).runtime_ms;
  };
  auto smallest = [](const model::ApplicationGraph& app,
                     const model::BistProgram& a, const model::BistProgram& b) {
    return app.GetTask(a.data_task).data_bytes <
           app.GetTask(b.data_task).data_bytes;
  };
  auto best_coverage = [](const model::ApplicationGraph& app,
                          const model::BistProgram& a,
                          const model::BistProgram& b) {
    return app.GetTask(a.test_task).fault_coverage_percent >
           app.GetTask(b.test_task).fault_coverage_percent;
  };
  return {
      CornerGenotype(spec, augmentation, genes, false, false,
                     fastest),  // no BIST
      CornerGenotype(spec, augmentation, genes, true, true,
                     fastest),  // local, fast
      CornerGenotype(spec, augmentation, genes, true, false,
                     smallest),  // gw, cheap
      CornerGenotype(spec, augmentation, genes, true, false,
                     best_coverage),  // gw, best
  };
}

/// One island: the MOEA over this island's EvaluationEngine. Every feasible
/// evaluation is offered to the island archive in genotype order — the
/// exact Offer sequence of one-by-one evaluation, which is what makes the
/// front bit-identical across thread counts. Leaves wall_seconds at 0.
ExplorationResult RunIsland(const model::Specification& spec,
                            const model::BistAugmentation& augmentation,
                            const ExplorationConfig& config) {
  EvaluationEngine engine(spec, augmentation, config);
  moea::ParetoArchive archive;
  std::vector<ExplorationEntry> store;

  const moea::BatchEvaluator evaluate =
      [&](std::span<const moea::Genotype> genotypes) {
        auto evaluated = engine.EvaluateBatch(genotypes);
        std::vector<std::optional<moea::ObjectiveVector>> vectors(
            evaluated.size());
        for (std::size_t i = 0; i < evaluated.size(); ++i) {
          if (!evaluated[i]) continue;
          if (archive.Offer(evaluated[i]->vector, store.size())) {
            store.push_back(
                {evaluated[i]->objectives, *evaluated[i]->implementation});
          }
          vectors[i] = std::move(evaluated[i]->vector);
        }
        return vectors;
      };

  moea::AlgorithmConfig moea_config;
  moea_config.population_size = config.population_size;
  moea_config.genotype_size = engine.GenotypeSize();
  moea_config.mutation_rate = config.mutation_rate;
  moea_config.seed = config.seed;
  if (config.seed_corners) {
    moea_config.initial_genotypes =
        CornerGenotypes(spec, augmentation, engine.GenotypeSize());
  }
  const moea::MoeaResult moea_result =
      moea::MakeAlgorithm(config.algorithm, std::move(moea_config))
          ->Run(evaluate, config.evaluations);

  ExplorationResult result;
  result.evaluations = moea_result.evaluations;
  for (const auto& entry : archive.Entries()) {
    result.pareto.push_back(std::move(store[entry.payload]));
  }
  result.eval_cache_hits = static_cast<std::size_t>(engine.CacheHits());
  result.decoder_stats = engine.Decoder();
  return result;
}

}  // namespace

ExplorationResult ExploreParallel(const model::Specification& spec,
                                  const model::BistAugmentation& augmentation,
                                  const ExplorationConfig& config,
                                  std::size_t islands) {
  if (islands == 0) islands = 1;
  const auto start = std::chrono::steady_clock::now();

  // Islands run on the shared executor — the same pool the fault-simulation
  // layer uses. Each island's decoder shards and evaluation chunks are
  // loops nested in its island chunk and join the same queue, so stacking
  // them cannot oversubscribe the machine. A single island runs inline on
  // the caller.
  std::vector<ExplorationResult> results(islands);
  util::ThreadPool::Global().ParallelFor(
      0, islands, islands,
      [&](std::size_t begin, std::size_t end, std::size_t /*slot*/) {
        for (std::size_t i = begin; i < end; ++i) {
          ExplorationConfig island_config = config;
          island_config.seed = config.seed + i;
          results[i] = RunIsland(spec, augmentation, island_config);
        }
      });

  // Deterministic merge: islands in seed order, entries in archive order.
  ExplorationResult merged;
  moea::ParetoArchive archive;
  std::vector<ExplorationEntry*> store;
  for (auto& result : results) {
    merged.evaluations += result.evaluations;
    merged.eval_cache_hits += result.eval_cache_hits;
    merged.decoder_stats.MergeFrom(result.decoder_stats);
    for (auto& entry : result.pareto) {
      const auto vec = entry.objectives.ToMinimizationVector(
          config.include_transition_quality);
      if (archive.Offer(vec, store.size())) store.push_back(&entry);
    }
  }
  for (const auto& archived : archive.Entries()) {
    merged.pareto.push_back(std::move(*store[archived.payload]));
  }
  merged.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return merged;
}

}  // namespace bistdse::dse
