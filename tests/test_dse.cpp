#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>

#include "casestudy/casestudy.hpp"
#include "dse/decoder.hpp"
#include "dse/objectives.hpp"
#include "dse/parallel.hpp"

namespace bistdse::dse {
namespace {

using casestudy::BuildCaseStudy;
using casestudy::PaperTableI;

/// A case study with a reduced profile set keeps unit tests fast.
casestudy::CaseStudy SmallCaseStudy() {
  auto profiles = PaperTableI();
  profiles.resize(6);
  return BuildCaseStudy(profiles, 42);
}

TEST(Encoding, EveryRandomGenotypeDecodesFeasibly) {
  auto cs = SmallCaseStudy();
  SatDecoder decoder(cs.spec, cs.augmentation, /*validate_each_decode=*/true);
  util::SplitMix64 rng(1);
  for (int trial = 0; trial < 50; ++trial) {
    const auto genotype = moea::RandomGenotype(decoder.GenotypeSize(), rng);
    const auto impl = decoder.Decode(genotype);
    ASSERT_TRUE(impl.has_value()) << "trial " << trial;
    // validate_each_decode would have thrown on any Eq. violation.
  }
  EXPECT_EQ(decoder.Stats().validation_failures, 0u);
  EXPECT_EQ(decoder.Stats().infeasible, 0u);
}

TEST(Encoding, DecodeRejectsMalformedGenotypes) {
  auto cs = SmallCaseStudy();
  SatDecoder decoder(cs.spec, cs.augmentation);
  util::SplitMix64 rng(2);
  const auto genotype = moea::RandomGenotype(decoder.GenotypeSize(), rng);

  auto short_phases = genotype;
  short_phases.phases.pop_back();
  EXPECT_THROW(decoder.Decode(short_phases), std::invalid_argument);
  auto long_phases = genotype;
  long_phases.phases.push_back(1);
  EXPECT_THROW(decoder.Decode(long_phases), std::invalid_argument);
  for (double bad : {std::nan(""), std::numeric_limits<double>::infinity()}) {
    auto non_finite = genotype;
    non_finite.priorities[genotype.Size() / 2] = bad;
    EXPECT_THROW(decoder.Decode(non_finite), std::invalid_argument);
  }
  // A rejected genotype leaves the decoder usable.
  EXPECT_TRUE(decoder.Decode(genotype).has_value());
}

TEST(Encoding, AllPhasesFalseSelectsNoBist) {
  auto cs = SmallCaseStudy();
  SatDecoder decoder(cs.spec, cs.augmentation);
  moea::Genotype genotype;
  genotype.priorities.assign(decoder.GenotypeSize(), 0.5);
  genotype.phases.assign(decoder.GenotypeSize(), 0);
  const auto impl = decoder.Decode(genotype);
  ASSERT_TRUE(impl.has_value());
  const auto obj = EvaluateImplementation(cs.spec, cs.augmentation, *impl);
  EXPECT_EQ(obj.ecus_with_bist, 0u);
  EXPECT_EQ(obj.test_quality_percent, 0.0);
  EXPECT_EQ(obj.shutoff_time_ms, 0.0);
}

TEST(Encoding, AllPhasesTrueSelectsBistBroadly) {
  auto cs = SmallCaseStudy();
  SatDecoder decoder(cs.spec, cs.augmentation, true);
  moea::Genotype genotype;
  genotype.priorities.assign(decoder.GenotypeSize(), 0.5);
  genotype.phases.assign(decoder.GenotypeSize(), 1);
  const auto impl = decoder.Decode(genotype);
  ASSERT_TRUE(impl.has_value());
  const auto obj = EvaluateImplementation(cs.spec, cs.augmentation, *impl);
  // Eq. 3a allows at most one BIST per ECU; allocated ECUs with a functional
  // task can host one — expect a good number of them selected.
  EXPECT_GT(obj.ecus_with_bist, 0u);
  EXPECT_LE(obj.ecus_with_bist, 15u);
  EXPECT_GT(obj.test_quality_percent, 0.0);
}

TEST(Objectives, GatewayStorageIsSharedAcrossEcus) {
  auto cs = SmallCaseStudy();
  SatDecoder decoder(cs.spec, cs.augmentation, true);

  // Prefer: every b^T on, every b^D at the gateway (second mapping option).
  moea::Genotype genotype;
  genotype.priorities.assign(decoder.GenotypeSize(), 0.5);
  genotype.phases.assign(decoder.GenotypeSize(), 0);
  const auto mappings = cs.spec.Mappings();
  for (const auto& [ecu, programs] : cs.augmentation.programs_by_ecu) {
    // Select only profile 0 everywhere; its data task to the gateway.
    const auto& prog = programs[0];
    for (std::size_t m : cs.spec.MappingsOfTask(prog.test_task)) {
      genotype.phases[m] = 1;
      genotype.priorities[m] = 0.9;
    }
    for (std::size_t m : cs.spec.MappingsOfTask(prog.data_task)) {
      if (mappings[m].resource == cs.gateway) {
        genotype.phases[m] = 1;
        genotype.priorities[m] = 0.8;
      } else {
        genotype.priorities[m] = 0.1;
      }
    }
  }
  const auto impl = decoder.Decode(genotype);
  ASSERT_TRUE(impl.has_value());
  const auto obj = EvaluateImplementation(cs.spec, cs.augmentation, *impl);
  ASSERT_GT(obj.ecus_with_bist, 1u);
  // All selected programs share profile 0: the gateway stores exactly one
  // copy of its encoded data.
  EXPECT_EQ(obj.gateway_memory_bytes, PaperTableI()[0].data_bytes);
  EXPECT_EQ(obj.distributed_memory_bytes, 0u);
  // Remote pattern storage implies a transfer time q > 0 on top of l(b).
  EXPECT_GT(obj.shutoff_time_ms, PaperTableI()[0].runtime_ms);
}

TEST(Objectives, LocalStorageAvoidsTransferTime) {
  auto cs = SmallCaseStudy();
  SatDecoder decoder(cs.spec, cs.augmentation, true);
  const auto mappings = cs.spec.Mappings();

  moea::Genotype genotype;
  genotype.priorities.assign(decoder.GenotypeSize(), 0.5);
  genotype.phases.assign(decoder.GenotypeSize(), 0);
  for (const auto& [ecu, programs] : cs.augmentation.programs_by_ecu) {
    const auto& prog = programs[0];
    for (std::size_t m : cs.spec.MappingsOfTask(prog.test_task)) {
      genotype.phases[m] = 1;
      genotype.priorities[m] = 0.9;
    }
    for (std::size_t m : cs.spec.MappingsOfTask(prog.data_task)) {
      if (mappings[m].resource == ecu) {  // local copy
        genotype.phases[m] = 1;
        genotype.priorities[m] = 0.8;
      } else {
        genotype.priorities[m] = 0.1;
      }
    }
  }
  const auto impl = decoder.Decode(genotype);
  ASSERT_TRUE(impl.has_value());
  const auto obj = EvaluateImplementation(cs.spec, cs.augmentation, *impl);
  ASSERT_GT(obj.ecus_with_bist, 1u);
  EXPECT_EQ(obj.gateway_memory_bytes, 0u);
  EXPECT_GT(obj.distributed_memory_bytes, 0u);
  // No transfer: shut-off time equals the session runtime l(b).
  EXPECT_DOUBLE_EQ(obj.shutoff_time_ms, PaperTableI()[0].runtime_ms);
}

TEST(Objectives, LocalStorageCostsMoreThanShared) {
  // The cost model must reproduce the paper's central trade-off.
  auto cs = SmallCaseStudy();
  SatDecoder decoder(cs.spec, cs.augmentation);
  const auto mappings = cs.spec.Mappings();

  auto make = [&](bool local) {
    moea::Genotype g;
    g.priorities.assign(decoder.GenotypeSize(), 0.5);
    g.phases.assign(decoder.GenotypeSize(), 0);
    for (const auto& [ecu, programs] : cs.augmentation.programs_by_ecu) {
      const auto& prog = programs[0];
      for (std::size_t m : cs.spec.MappingsOfTask(prog.test_task)) {
        g.phases[m] = 1;
        g.priorities[m] = 0.9;
      }
      for (std::size_t m : cs.spec.MappingsOfTask(prog.data_task)) {
        const bool is_local = mappings[m].resource == ecu;
        g.phases[m] = is_local == local ? 1 : 0;
        g.priorities[m] = is_local == local ? 0.8 : 0.1;
      }
    }
    const auto impl = decoder.Decode(g);
    EXPECT_TRUE(impl.has_value());
    return EvaluateImplementation(cs.spec, cs.augmentation, *impl);
  };

  const auto local = make(true);
  const auto shared = make(false);
  EXPECT_GT(local.monetary_cost, shared.monetary_cost);
  EXPECT_LT(local.shutoff_time_ms, shared.shutoff_time_ms);
}

TEST(Exploration, SmallRunFindsTradeoffFront) {
  auto cs = SmallCaseStudy();
  ExplorationConfig cfg;
  cfg.evaluations = 600;
  cfg.population_size = 24;
  cfg.seed = 5;
  cfg.validate_each_decode = true;
  const auto result = ExploreParallel(cs.spec, cs.augmentation, cfg, 1);

  EXPECT_EQ(result.evaluations, 600u);
  ASSERT_GT(result.pareto.size(), 3u);
  EXPECT_EQ(result.decoder_stats.validation_failures, 0u);

  // The front must span the quality axis (0-quality cheap designs up to
  // high-coverage designs) and contain no dominated pair.
  double min_q = 1e9, max_q = -1e9;
  for (const auto& e : result.pareto) {
    min_q = std::min(min_q, e.objectives.test_quality_percent);
    max_q = std::max(max_q, e.objectives.test_quality_percent);
  }
  // 600 evaluations cannot fully converge, but the front must already span
  // a wide quality range (full-scale runs in bench_fig5 reach 0..~99 %).
  EXPECT_LT(min_q, 50.0);
  EXPECT_GT(max_q, 80.0);
  EXPECT_GT(max_q - min_q, 30.0);
  for (std::size_t i = 0; i < result.pareto.size(); ++i) {
    for (std::size_t j = 0; j < result.pareto.size(); ++j) {
      if (i == j) continue;
      EXPECT_FALSE(moea::Dominates(
          result.pareto[i].objectives.ToMinimizationVector(),
          result.pareto[j].objectives.ToMinimizationVector()))
          << i << " dominates " << j;
    }
  }
}

TEST(Exploration, CornerSeedingSpansQualityAxis) {
  auto cs = SmallCaseStudy();
  ExplorationConfig cfg;
  cfg.evaluations = 300;
  cfg.population_size = 24;
  cfg.seed = 5;
  cfg.seed_corners = true;
  const auto result = ExploreParallel(cs.spec, cs.augmentation, cfg, 1);

  double min_q = 1e18, max_q = -1e18, min_shutoff = 1e18;
  for (const auto& e : result.pareto) {
    min_q = std::min(min_q, e.objectives.test_quality_percent);
    max_q = std::max(max_q, e.objectives.test_quality_percent);
    min_shutoff = std::min(min_shutoff, e.objectives.shutoff_time_ms);
  }
  // The no-BIST corner puts quality 0 / shut-off 0 on the front immediately;
  // the best-coverage corner pins the top end.
  EXPECT_EQ(min_q, 0.0);
  EXPECT_EQ(min_shutoff, 0.0);
  EXPECT_GT(max_q, 90.0);
}

TEST(Encoding, ReusedSolverMatchesFreshSolver) {
  // The decoder keeps one solver across decodes (learned clauses persist).
  // Soundness check: every decode must equal a decode on a freshly built
  // instance with the same policy.
  auto cs = SmallCaseStudy();
  SatDecoder reused(cs.spec, cs.augmentation);
  util::SplitMix64 rng(13);
  for (int trial = 0; trial < 15; ++trial) {
    const auto genotype = moea::RandomGenotypeBiased(
        reused.GenotypeSize(), rng.UnitReal(), rng);
    const auto a = reused.Decode(genotype);
    SatDecoder fresh(cs.spec, cs.augmentation);
    const auto b = fresh.Decode(genotype);
    ASSERT_TRUE(a.has_value());
    ASSERT_TRUE(b.has_value());
    EXPECT_EQ(a->binding, b->binding) << "trial " << trial;
  }
}

/// FNV-1a fingerprint of a Pareto front: objective vectors plus bindings.
/// The recorded constants below were produced by the pre-refactor monolithic
/// solver; the layered core (pinned decision order) must reproduce them
/// bit-identically — see the canonicity notes in sat/.
std::uint64_t FrontFingerprint(const std::vector<ExplorationEntry>& pareto) {
  std::uint64_t h = 1469598103934665603ULL;
  const auto bytes = [&h](const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 1099511628211ULL;
    }
  };
  const auto u64 = [&bytes](std::uint64_t v) { bytes(&v, sizeof v); };
  u64(pareto.size());
  for (const auto& e : pareto) {
    const auto v = e.objectives.ToMinimizationVector();
    u64(v.size());
    for (double d : v) bytes(&d, sizeof d);
    u64(e.implementation.binding.size());
    for (std::size_t m : e.implementation.binding) u64(m);
  }
  return h;
}

TEST(Exploration, FrontFingerprintMatchesSeedSolverAt600Evals) {
  auto cs = SmallCaseStudy();
  ExplorationConfig cfg;
  cfg.evaluations = 600;
  cfg.population_size = 24;
  cfg.seed = 5;
  cfg.validate_each_decode = true;
  const auto result = ExploreParallel(cs.spec, cs.augmentation, cfg, 1);
  EXPECT_EQ(FrontFingerprint(result.pareto), 0xb4fad4f200a66d11ULL);
  // The decode telemetry must be plumbed through the exploration result.
  EXPECT_EQ(result.decoder_stats.decodes, 600u);
  EXPECT_GT(result.decoder_stats.decode_seconds, 0.0);
  EXPECT_GT(result.decoder_stats.solver.propagations, 0u);
}

TEST(Exploration, FrontFingerprintMatchesSeedSolverAt200Evals) {
  auto cs = SmallCaseStudy();
  ExplorationConfig cfg;
  cfg.evaluations = 200;
  cfg.population_size = 16;
  cfg.seed = 9;
  EXPECT_EQ(
      FrontFingerprint(ExploreParallel(cs.spec, cs.augmentation, cfg, 1).pareto),
      0xe23eb57fbb12e1d8ULL);
}

TEST(Exploration, ParallelFrontFingerprintMatchesSeedSolver) {
  // Full case study, two islands over the shared engine: the merged front
  // (and the per-island Offer sequences behind it) must reproduce the
  // pre-refactor bytes exactly.
  auto cs = casestudy::BuildCaseStudy();
  ExplorationConfig cfg;
  cfg.evaluations = 1000;
  cfg.population_size = 100;
  cfg.seed = 1;
  const auto result = ExploreParallel(cs.spec, cs.augmentation, cfg, 2);
  EXPECT_EQ(FrontFingerprint(result.pareto), 0xaabcf3abec95651aULL);
  EXPECT_EQ(result.decoder_stats.decodes, 2000u);
  EXPECT_GT(result.decoder_stats.decode_seconds, 0.0);
}

TEST(Exploration, DeterministicForFixedSeed) {
  auto cs = SmallCaseStudy();
  ExplorationConfig cfg;
  cfg.evaluations = 200;
  cfg.population_size = 16;
  cfg.seed = 9;
  const auto ra = ExploreParallel(cs.spec, cs.augmentation, cfg, 1);
  const auto rb = ExploreParallel(cs.spec, cs.augmentation, cfg, 1);
  ASSERT_EQ(ra.pareto.size(), rb.pareto.size());
  for (std::size_t i = 0; i < ra.pareto.size(); ++i) {
    EXPECT_EQ(ra.pareto[i].objectives.ToMinimizationVector(),
              rb.pareto[i].objectives.ToMinimizationVector());
  }
}

}  // namespace
}  // namespace bistdse::dse
