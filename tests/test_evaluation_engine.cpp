// The exploration path's determinism contract:
//   (a) ExploreParallel reproduces the front of the legacy composition
//       (per-genotype decode + EvaluateImplementation + local memo)
//       bit-exactly for a fixed seed,
//   (b) the front is invariant across the engine's `threads` setting,
//   (c) each island owns its memo, so the memo hits and decoder counters of
//       an island run are deterministic: equal for every `threads` value and
//       on a repeated run, and equal to the sum of the islands run alone.
#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <unordered_map>

#include "casestudy/casestudy.hpp"
#include "dse/evaluation_engine.hpp"
#include "dse/parallel.hpp"
#include "moea/algorithm.hpp"

namespace bistdse::dse {
namespace {

casestudy::CaseStudy SmallCaseStudy() {
  auto profiles = casestudy::PaperTableI();
  profiles.resize(6);
  return casestudy::BuildCaseStudy(profiles, 42);
}

/// The pre-engine composition: a per-genotype evaluator over a local
/// unordered_map memo and the free EvaluateImplementation, driven through
/// the MOEA's per-genotype (non-batched) adapter. Checks the 3-objective
/// layout.
std::vector<ExplorationEntry> LegacyFront(const casestudy::CaseStudy& cs,
                                          MoeaAlgorithm algorithm,
                                          const ExplorationConfig& config) {
  SatDecoder decoder(cs.spec, cs.augmentation, config.validate_each_decode);
  moea::ParetoArchive archive;
  std::vector<ExplorationEntry> store;
  std::unordered_map<std::uint64_t, Objectives> memo;

  const moea::Evaluator evaluator =
      [&](const moea::Genotype& genotype)
      -> std::optional<moea::ObjectiveVector> {
    auto impl = decoder.Decode(genotype);
    if (!impl) return std::nullopt;
    const std::uint64_t signature = ImplementationSignature(*impl);
    const auto hit = memo.find(signature);
    const Objectives objectives =
        hit != memo.end()
            ? hit->second
            : memo
                  .emplace(signature,
                           EvaluateImplementation(cs.spec, cs.augmentation,
                                                  *impl, config.evaluation))
                  .first->second;
    auto vec = objectives.ToMinimizationVector(false);
    if (archive.Offer(vec, store.size())) {
      store.push_back({objectives, std::move(*impl)});
    }
    return vec;
  };

  moea::AlgorithmConfig moea_config;
  moea_config.population_size = config.population_size;
  moea_config.genotype_size = decoder.GenotypeSize();
  moea_config.mutation_rate = config.mutation_rate;
  moea_config.seed = config.seed;
  moea::MakeAlgorithm(algorithm, moea_config)
      ->Run(evaluator, config.evaluations);

  std::vector<ExplorationEntry> front;
  for (const auto& entry : archive.Entries()) {
    front.push_back(store[entry.payload]);
  }
  return front;
}

void ExpectSameFront(const std::vector<ExplorationEntry>& a,
                     const std::vector<ExplorationEntry>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].objectives.ToMinimizationVector(),
              b[i].objectives.ToMinimizationVector())
        << "entry " << i;
    EXPECT_EQ(a[i].implementation.binding, b[i].implementation.binding)
        << "entry " << i;
  }
}

TEST(EvaluationEngine, ReproducesLegacyFrontNsga2) {
  auto cs = SmallCaseStudy();
  ExplorationConfig cfg;
  cfg.evaluations = 400;
  cfg.population_size = 16;
  cfg.seed = 1;
  cfg.seed_corners = false;  // the legacy reference seeds no corners
  cfg.threads = 1;

  const auto legacy = LegacyFront(cs, MoeaAlgorithm::Nsga2, cfg);
  const auto result = ExploreParallel(cs.spec, cs.augmentation, cfg, 1);
  ASSERT_GT(legacy.size(), 2u);
  ExpectSameFront(legacy, result.pareto);
}

TEST(EvaluationEngine, ReproducesLegacyFrontSpea2) {
  auto cs = SmallCaseStudy();
  ExplorationConfig cfg;
  cfg.algorithm = MoeaAlgorithm::Spea2;
  cfg.evaluations = 400;
  cfg.population_size = 16;
  cfg.seed = 1;
  cfg.seed_corners = false;
  cfg.threads = 1;

  const auto legacy = LegacyFront(cs, MoeaAlgorithm::Spea2, cfg);
  const auto result = ExploreParallel(cs.spec, cs.augmentation, cfg, 1);
  ASSERT_GT(legacy.size(), 2u);
  ExpectSameFront(legacy, result.pareto);
}

TEST(EvaluationEngine, FrontInvariantAcrossThreadCounts) {
  auto cs = SmallCaseStudy();
  ExplorationConfig cfg;
  cfg.evaluations = 400;
  cfg.population_size = 16;
  cfg.seed = 3;

  cfg.threads = 1;
  const auto expected = ExploreParallel(cs.spec, cs.augmentation, cfg, 1);
  ASSERT_GT(expected.pareto.size(), 2u);

  for (const std::size_t threads : {std::size_t{2}, std::size_t{8},
                                    std::size_t{0}}) {
    cfg.threads = threads;
    const auto result = ExploreParallel(cs.spec, cs.augmentation, cfg, 1);
    EXPECT_EQ(result.evaluations, expected.evaluations) << threads;
    EXPECT_EQ(result.eval_cache_hits, expected.eval_cache_hits) << threads;
    ExpectSameFront(expected.pareto, result.pareto);
  }
}

TEST(EvaluationEngine, MergedIslandFrontInvariantAcrossThreadCounts) {
  auto cs = SmallCaseStudy();
  ExplorationConfig cfg;
  cfg.evaluations = 300;
  cfg.population_size = 16;
  cfg.seed = 1;

  cfg.threads = 1;
  const auto expected = ExploreParallel(cs.spec, cs.augmentation, cfg, 2);
  ASSERT_GT(expected.pareto.size(), 2u);

  cfg.threads = 8;
  const auto result = ExploreParallel(cs.spec, cs.augmentation, cfg, 2);
  EXPECT_EQ(result.evaluations, expected.evaluations);
  ExpectSameFront(expected.pareto, result.pareto);
}

void ExpectSameCounters(const DecoderStats& a, const DecoderStats& b) {
  EXPECT_EQ(a.decodes, b.decodes);
  EXPECT_EQ(a.infeasible, b.infeasible);
  EXPECT_EQ(a.validation_failures, b.validation_failures);
  EXPECT_EQ(a.solver.solves, b.solver.solves);
  EXPECT_EQ(a.solver.decisions, b.solver.decisions);
  EXPECT_EQ(a.solver.conflicts, b.solver.conflicts);
  EXPECT_EQ(a.solver.learned_clauses, b.solver.learned_clauses);
  EXPECT_EQ(a.solver.propagations, b.solver.propagations);
  EXPECT_EQ(a.solver.binary_propagations, b.solver.binary_propagations);
  EXPECT_EQ(a.solver.pb_propagations, b.solver.pb_propagations);
}

TEST(EvaluationEngine, IslandCountersInvariantAcrossThreadsAndRuns) {
  auto cs = SmallCaseStudy();
  ExplorationConfig cfg;
  cfg.evaluations = 300;
  cfg.population_size = 16;
  cfg.seed = 1;

  cfg.threads = 1;
  const auto expected = ExploreParallel(cs.spec, cs.augmentation, cfg, 2);
  ASSERT_GT(expected.eval_cache_hits, 0u);
  ASSERT_EQ(expected.decoder_stats.decodes, 600u);

  // 8 exceeds kDecoderShards: the partition stays the same.
  for (const std::size_t threads :
       {std::size_t{1}, std::size_t{2}, std::size_t{8}, std::size_t{0}}) {
    cfg.threads = threads;
    const auto result = ExploreParallel(cs.spec, cs.augmentation, cfg, 2);
    EXPECT_EQ(result.eval_cache_hits, expected.eval_cache_hits) << threads;
    ExpectSameCounters(result.decoder_stats, expected.decoder_stats);
  }
}

TEST(EvaluationEngine, ShardExceptionOfTheLowestGenotypeIndexWins) {
  // Index 5 (the first shard's range) has too few phases, index 60 (a later
  // shard's range) a NaN priority. Whichever shard fails first, the batch
  // reports index 5, as decoding one by one would.
  auto cs = SmallCaseStudy();
  util::SplitMix64 rng(7);
  ExplorationConfig cfg;
  for (const std::size_t threads :
       {std::size_t{1}, std::size_t{2}, std::size_t{0}}) {
    cfg.threads = threads;
    EvaluationEngine engine(cs.spec, cs.augmentation, cfg);
    std::vector<moea::Genotype> batch;
    for (std::size_t i = 0; i < 100; ++i) {
      batch.push_back(moea::RandomGenotype(engine.GenotypeSize(), rng));
    }
    batch[5].phases.pop_back();
    batch[60].priorities[0] = std::numeric_limits<double>::quiet_NaN();
    try {
      engine.EvaluateBatch(batch);
      ADD_FAILURE() << "no exception, threads " << threads;
    } catch (const std::invalid_argument& e) {
      EXPECT_STREQ(e.what(), "genotype size mismatch") << threads;
    }
  }
}

TEST(EvaluationEngine, IslandCacheHitsSumOverIslandsRunAlone) {
  auto cs = SmallCaseStudy();
  ExplorationConfig cfg;
  cfg.evaluations = 300;
  cfg.population_size = 16;
  cfg.seed = 4;

  std::size_t alone_hits = 0;
  for (std::uint64_t i = 0; i < 2; ++i) {
    ExplorationConfig island = cfg;
    island.seed = cfg.seed + i;
    alone_hits += ExploreParallel(cs.spec, cs.augmentation, island, 1)
                      .eval_cache_hits;
  }
  const auto merged = ExploreParallel(cs.spec, cs.augmentation, cfg, 2);
  EXPECT_GT(alone_hits, 0u);
  EXPECT_EQ(merged.eval_cache_hits, alone_hits);
}

}  // namespace
}  // namespace bistdse::dse
