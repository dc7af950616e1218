#include "dse/exploration.hpp"

#include <chrono>
#include <limits>
#include <utility>

#include "moea/archive.hpp"

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

EvaluationEngineConfig EngineConfigFrom(const ExplorationConfig& config) {
  EvaluationEngineConfig engine_config;
  engine_config.validate_each_decode = config.validate_each_decode;
  engine_config.threads = config.threads;
  engine_config.evaluation = config.evaluation;
  engine_config.stages = config.stages;
  return engine_config;
}

}  // namespace

Explorer::Explorer(const model::Specification& spec,
                   const model::BistAugmentation& augmentation,
                   ExplorationConfig config)
    : owned_engine_(std::make_unique<EvaluationEngine>(
          spec, augmentation, EngineConfigFrom(config))),
      engine_(owned_engine_.get()),
      config_(std::move(config)) {}

Explorer::Explorer(EvaluationEngine& engine, ExplorationConfig config)
    : engine_(&engine), config_(std::move(config)) {}

ExplorationResult Explorer::Run(const moea::GenerationCallback& on_generation) {
  ExplorationResult result;
  const auto start = std::chrono::steady_clock::now();

  EvaluationEngine::Session session = engine_->NewSession();
  const model::Specification& spec = engine_->Spec();
  const model::BistAugmentation& augmentation = engine_->Augmentation();

  moea::ParetoArchive archive;
  std::vector<ExplorationEntry> store;

  // Both paths offer to the archive in genotype order — batched evaluation
  // produces the exact Offer sequence of the one-by-one path, which is what
  // makes the front bit-identical across thread counts.
  const auto offer = [&archive, &store](EvaluationEngine::Evaluated&& evaluated)
      -> moea::ObjectiveVector {
    if (archive.Offer(evaluated.vector, store.size())) {
      store.push_back(
          {evaluated.objectives, std::move(evaluated.implementation)});
    }
    return std::move(evaluated.vector);
  };
  moea::PopulationEvaluator evaluator;
  evaluator.single = [&](const moea::Genotype& genotype)
      -> std::optional<moea::ObjectiveVector> {
    auto evaluated = session.Evaluate(genotype);
    if (!evaluated) return std::nullopt;
    return offer(std::move(*evaluated));
  };
  evaluator.batch = [&](std::span<const moea::Genotype> genotypes) {
    auto evaluated = session.EvaluateBatch(genotypes);
    std::vector<std::optional<moea::ObjectiveVector>> vectors(evaluated.size());
    for (std::size_t i = 0; i < evaluated.size(); ++i) {
      if (!evaluated[i]) continue;
      vectors[i] = offer(std::move(*evaluated[i]));
    }
    return vectors;
  };

  moea::AlgorithmConfig moea_config;
  moea_config.population_size = config_.population_size;
  moea_config.genotype_size = session.GenotypeSize();
  moea_config.mutation_rate = config_.mutation_rate;
  moea_config.seed = config_.seed;
  if (config_.seed_corners) {
    const std::size_t genes = session.GenotypeSize();
    auto fastest = [](const model::ApplicationGraph& app,
                      const model::BistProgram& a,
                      const model::BistProgram& b) {
      return app.GetTask(a.test_task).runtime_ms <
             app.GetTask(b.test_task).runtime_ms;
    };
    auto smallest = [](const model::ApplicationGraph& app,
                       const model::BistProgram& a,
                       const model::BistProgram& b) {
      return app.GetTask(a.data_task).data_bytes <
             app.GetTask(b.data_task).data_bytes;
    };
    auto best_coverage = [](const model::ApplicationGraph& app,
                            const model::BistProgram& a,
                            const model::BistProgram& b) {
      return app.GetTask(a.test_task).fault_coverage_percent >
             app.GetTask(b.test_task).fault_coverage_percent;
    };
    moea_config.initial_genotypes.push_back(CornerGenotype(
        spec, augmentation, genes, false, false, fastest));  // no BIST
    moea_config.initial_genotypes.push_back(CornerGenotype(
        spec, augmentation, genes, true, true, fastest));  // local, fast
    moea_config.initial_genotypes.push_back(CornerGenotype(
        spec, augmentation, genes, true, false, smallest));  // gw, cheap
    moea_config.initial_genotypes.push_back(CornerGenotype(
        spec, augmentation, genes, true, false, best_coverage));  // gw, best
  }
  if (config_.stagnation_generations > 0) {
    moea_config.should_stop = [&store, last = std::size_t{0},
                               stagnant = std::size_t{0},
                               limit = config_.stagnation_generations](
                                  std::size_t,
                                  const moea::ParetoArchive&) mutable {
      if (store.size() == last) {
        ++stagnant;
      } else {
        stagnant = 0;
        last = store.size();
      }
      return stagnant >= limit;
    };
  }

  const std::unique_ptr<moea::Algorithm> algorithm =
      moea::MakeAlgorithm(config_.algorithm, std::move(moea_config));
  const moea::MoeaResult moea_result =
      algorithm->Run(evaluator, config_.evaluations, on_generation);

  result.evaluations = moea_result.evaluations;
  for (const auto& entry : archive.Entries()) {
    result.pareto.push_back(store[entry.payload]);
  }
  result.eval_cache_hits = static_cast<std::size_t>(session.CacheHits());
  result.decoder_stats = session.Decoder();
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return result;
}

}  // namespace bistdse::dse
