// The parameterized topology generator and the corpus sweep.
//
// The load-bearing assertions are the bit-identity pins: the canonical
// case-study specs, rebased onto arch::GenerateTopology, must reproduce the
// pre-refactor hand-built graphs exactly. The pinned constants were captured
// from the last commit with the hand-built builders; a change here means the
// generator no longer replays the historical construction order or RNG
// stream.
#include <gtest/gtest.h>

#include <set>
#include <stdexcept>

#include "arch/corpus.hpp"
#include "arch/topology.hpp"
#include "casestudy/casestudy.hpp"
#include "dse/decoder.hpp"
#include "dse/parallel.hpp"
#include "execution_hash.hpp"
#include "net/campaign.hpp"
#include "test_helpers.hpp"

namespace bistdse::arch {
namespace {

// --- bit-identity pins (pre-refactor fingerprints) -------------------------

TEST(BitIdentity, CaseStudyContentHash) {
  const auto cs = casestudy::BuildCaseStudy();
  EXPECT_EQ(model::ContentHash(cs.spec), 0xa5c6946838edaf57ULL);
}

TEST(BitIdentity, SmallCaseStudyContentHash) {
  auto profiles = casestudy::PaperTableI();
  profiles.resize(6);
  const auto cs = casestudy::BuildCaseStudy(profiles, 42);
  EXPECT_EQ(model::ContentHash(cs.spec), 0x243847d15553f4edULL);
}

TEST(BitIdentity, FutureCaseStudyContentHash) {
  const auto cs = casestudy::BuildFutureCaseStudy();
  EXPECT_EQ(model::ContentHash(cs.spec), 0x12318214d05ad4d0ULL);
}

TEST(BitIdentity, FutureSmallContentHash) {
  auto small = casestudy::PaperTableI();
  small.resize(3);
  const auto cs = casestudy::BuildFutureCaseStudy(small, {}, 43);
  EXPECT_EQ(model::ContentHash(cs.spec), 0xfea83f08f24946eeULL);
}

// The canonical spec fed to the generator directly — not through the
// casestudy wrappers — still lands on the pinned graph.
TEST(BitIdentity, CanonicalSpecRoundTripsThroughGenerator) {
  const auto spec = casestudy::CaseStudySpec(casestudy::PaperTableI());
  const Topology topo = GenerateTopology(spec, 42);
  EXPECT_EQ(model::ContentHash(topo.spec), 0xa5c6946838edaf57ULL);
}

// --- determinism and seed sensitivity --------------------------------------

TopologySpec SmallGeneratedSpec() {
  TopologySpec spec;
  spec.name = "gen-small";
  spec.num_ecus = 8;
  spec.buses = {{}, {}};
  spec.num_sensors = 4;
  spec.num_actuators = 2;
  spec.profile_sets = {casestudy::ScaledTableI(1.0 / 256, 3)};
  return spec;
}

TEST(Generator, SameSpecAndSeedIsBitIdentical) {
  const auto spec = SmallGeneratedSpec();
  const auto a = GenerateTopology(spec, 7);
  const auto b = GenerateTopology(spec, 7);
  EXPECT_EQ(model::ContentHash(a.spec), model::ContentHash(b.spec));
}

TEST(Generator, DifferentSeedsAreStructurallyDistinct) {
  const auto spec = SmallGeneratedSpec();
  // Different seeds redraw mapping options, payloads, and derived chains.
  EXPECT_NE(model::ContentHash(GenerateTopology(spec, 7).spec),
            model::ContentHash(GenerateTopology(spec, 8).spec));
}

TEST(Generator, GeneratedTopologyIsStructurallyValid) {
  const auto topo = GenerateTopology(SmallGeneratedSpec(), 7);
  bistdse::testing::ExpectValidTopology(topo);
  EXPECT_EQ(topo.ecus.size(), 8u);
  EXPECT_EQ(topo.buses.size(), 2u);
  // Single CUT generation: no per-ECU types recorded.
  EXPECT_TRUE(topo.cut_type_by_ecu.empty());
}

TEST(Generator, MultiGenerationAssignsContiguousBlocks) {
  auto spec = SmallGeneratedSpec();
  spec.profile_sets.push_back(
      NextGenerationProfiles(spec.profile_sets[0]));
  const auto topo = GenerateTopology(spec, 7);
  ASSERT_EQ(topo.cut_type_by_ecu.size(), 8u);
  for (std::size_t e = 0; e < topo.ecus.size(); ++e) {
    EXPECT_EQ(topo.cut_type_by_ecu.at(topo.ecus[e]), e < 4 ? 0u : 1u);
  }
}

TEST(Generator, EmptyProfileSetsSkipAugmentation) {
  auto spec = SmallGeneratedSpec();
  spec.profile_sets.clear();
  const auto topo = GenerateTopology(spec, 7);
  EXPECT_EQ(topo.augmentation.collect_task, model::kInvalidId);
  EXPECT_TRUE(topo.augmentation.programs_by_ecu.empty());
}

// --- degenerate-spec rejection ---------------------------------------------

/// The thrown message must name the offending field.
void ExpectRejected(const TopologySpec& spec, const std::string& field) {
  try {
    ValidateTopologySpec(spec);
    FAIL() << "expected rejection naming " << field;
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
        << e.what();
  }
}

TEST(Validation, RejectsZeroEcus) {
  auto spec = SmallGeneratedSpec();
  spec.num_ecus = 0;
  ExpectRejected(spec, "num_ecus");
}

TEST(Validation, RejectsZeroBuses) {
  auto spec = SmallGeneratedSpec();
  spec.buses.clear();
  ExpectRejected(spec, "buses");
}

TEST(Validation, RejectsGatewaylessMultiBus) {
  auto spec = SmallGeneratedSpec();
  spec.has_gateway = false;
  ExpectRejected(spec, "has_gateway");
}

TEST(Validation, RejectsGatewaylessAugmentation) {
  auto spec = SmallGeneratedSpec();
  spec.buses = {{}};
  spec.has_gateway = false;  // single bus, but BIST needs the collector
  ExpectRejected(spec, "has_gateway");
}

TEST(Validation, RejectsSensorBusMismatchAndRange) {
  auto spec = SmallGeneratedSpec();
  spec.sensor_bus = {0};  // 4 sensors declared
  ExpectRejected(spec, "sensor_bus");
  spec.sensor_bus = {0, 5, 0, 0};
  ExpectRejected(spec, "sensor_bus");
}

TEST(Validation, RejectsChainReferencingMissingEcus) {
  auto spec = SmallGeneratedSpec();
  // Home bus 1 exists but a 1-ECU bus cannot host a processing chain.
  spec.num_ecus = 5;  // ceil(5/2) = 3 on bus 0, 2 on bus 1 — now shrink:
  spec.buses = {{}, {}, {}};  // ceil(5/3) = 2, 2, 1
  spec.chains = {{"orphan", 2, {0}, {0}, 4}};
  ExpectRejected(spec, "orphan");
}

TEST(Validation, RejectsChainWithMissingSensor) {
  auto spec = SmallGeneratedSpec();
  spec.chains = {{"bad", 0, {9}, {0}, 4}};
  ExpectRejected(spec, "bad");
}

TEST(Validation, RejectsChainWithOutOfRangeHomeBus) {
  auto spec = SmallGeneratedSpec();
  spec.chains = {{"lost", 7, {0}, {0}, 4}};
  ExpectRejected(spec, "lost");
}

TEST(Validation, RejectsDerivedChainBounds) {
  auto spec = SmallGeneratedSpec();
  spec.chain_processing_min = 5;
  spec.chain_processing_max = 4;
  ExpectRejected(spec, "chain_processing");
}

TEST(Validation, RejectsMoreGenerationsThanEcus) {
  auto spec = SmallGeneratedSpec();
  spec.num_ecus = 4;
  spec.buses = {{}};
  spec.profile_sets.assign(5, spec.profile_sets[0]);
  ExpectRejected(spec, "profile_sets");
}

// --- corpus sampling -------------------------------------------------------

CorpusSpec SmallCorpus() {
  CorpusSpec corpus;
  corpus.count = 6;
  corpus.min_ecus = 5;
  corpus.max_ecus = 50;
  corpus.min_buses = 2;
  corpus.max_buses = 8;
  corpus.seed = 11;
  corpus.profile_pool = casestudy::ScaledTableI(1.0 / 256, 3);
  return corpus;
}

TEST(Corpus, SamplesWithinEnvelopeAndDeterministically) {
  const auto corpus = SmallCorpus();
  std::set<std::uint64_t> hashes;
  for (std::size_t i = 0; i < corpus.count; ++i) {
    const auto spec = SampleTopologySpec(corpus, i);
    EXPECT_GE(spec.buses.size(), corpus.min_buses);
    EXPECT_LE(spec.buses.size(), corpus.max_buses);
    EXPECT_GE(spec.num_ecus, std::max(corpus.min_ecus, 2 * spec.buses.size()));
    EXPECT_LE(spec.num_ecus, corpus.max_ecus);
    EXPECT_GE(spec.profile_sets.size(), 1u);
    EXPECT_LE(spec.profile_sets.size(), corpus.max_generations);

    const auto again = SampleTopologySpec(corpus, i);
    const auto topo = GenerateTopology(spec, TopologySeed(corpus, i));
    EXPECT_EQ(model::ContentHash(topo.spec),
              model::ContentHash(
                  GenerateTopology(again, TopologySeed(corpus, i)).spec));
    bistdse::testing::ExpectValidTopology(topo);
    hashes.insert(model::ContentHash(topo.spec));
  }
  // Every corpus member is structurally distinct.
  EXPECT_EQ(hashes.size(), corpus.count);
}

TEST(Corpus, RejectsDegenerateEnvelope) {
  auto corpus = SmallCorpus();
  corpus.profile_pool.clear();
  EXPECT_THROW(SampleTopologySpec(corpus, 0), std::invalid_argument);
  corpus = SmallCorpus();
  corpus.min_buses = 9;
  EXPECT_THROW(SampleTopologySpec(corpus, 0), std::invalid_argument);
  corpus = SmallCorpus();
  corpus.max_generations = 0;
  EXPECT_THROW(SampleTopologySpec(corpus, 0), std::invalid_argument);
}

// --- route table -----------------------------------------------------------

/// Every ordered resource pair routes through the table exactly as
/// ShortestPath does, and an unreachable pair has no route.
void ExpectRoutesMatchShortestPath(const model::ArchitectureGraph& arch) {
  const model::RouteTable routes(arch);
  for (model::ResourceId a = 0; a < arch.ResourceCount(); ++a) {
    for (model::ResourceId b = 0; b < arch.ResourceCount(); ++b) {
      const auto expected = arch.ShortestPath(a, b);
      std::vector<model::ResourceId> path{a};
      ASSERT_EQ(routes.AppendPath(a, b, path), expected.has_value())
          << a << " -> " << b;
      EXPECT_EQ(path, expected.value_or(std::vector<model::ResourceId>{a}))
          << a << " -> " << b;
    }
  }
}

TEST(RouteTable, MatchesShortestPathOnCaseStudy) {
  ExpectRoutesMatchShortestPath(
      casestudy::BuildCaseStudy().spec.Architecture());
}

TEST(RouteTable, MatchesShortestPathOnDesignCorpusStrata) {
  // The eight (ECUs, buses) strata of the design-corpus benchmark workload.
  const std::size_t ecus[] = {20, 24, 28, 32, 36, 40, 45, 50};
  const std::size_t buses[] = {2, 3, 4, 5, 6, 7, 8, 4};
  for (std::size_t k = 0; k < std::size(ecus); ++k) {
    CorpusSpec corpus;
    corpus.seed = 1;
    corpus.min_ecus = corpus.max_ecus = ecus[k];
    corpus.min_buses = corpus.max_buses = buses[k];
    corpus.profile_pool = casestudy::ScaledTableI(1.0 / 256, 4);
    const auto topo = GenerateTopology(SampleTopologySpec(corpus, k),
                                       TopologySeed(corpus, k));
    SCOPED_TRACE("stratum " + std::to_string(k));
    ExpectRoutesMatchShortestPath(topo.spec.Architecture());
  }
}

TEST(RouteTable, DisconnectedPairsHaveNoRoute) {
  model::ArchitectureGraph arch;
  const auto ecu = arch.AddResource({"ecu", model::ResourceKind::Ecu, 1, 0, 0});
  const auto bus =
      arch.AddResource({"bus", model::ResourceKind::Bus, 1, 0, 500e3});
  const auto island =
      arch.AddResource({"island", model::ResourceKind::Ecu, 1, 0, 0});
  arch.AddLink(ecu, bus);
  ExpectRoutesMatchShortestPath(arch);

  const model::RouteTable routes(arch);
  std::vector<model::ResourceId> path{ecu};
  EXPECT_FALSE(routes.AppendPath(ecu, island, path));
  EXPECT_FALSE(routes.AppendPath(island, bus, path));
  EXPECT_EQ(path, std::vector<model::ResourceId>{ecu});
}

// --- adversarial campaign --------------------------------------------------

TEST(Campaign, ScheduleIsSeededAndBaselineFirst) {
  net::CampaignScheduleSpec spec;
  spec.rounds = 5;
  spec.seed = 3;
  const auto a = net::MakeCampaignSchedule(spec);
  const auto b = net::MakeCampaignSchedule(spec);
  ASSERT_EQ(a.size(), 6u);
  EXPECT_EQ(a[0].drop_rate, 0.0);
  EXPECT_EQ(a[0].corrupt_rate, 0.0);
  EXPECT_EQ(a[0].reorder_rate, 0.0);
  for (std::size_t r = 0; r < a.size(); ++r) {
    EXPECT_EQ(a[r].drop_rate, b[r].drop_rate);
    EXPECT_EQ(a[r].seed, b[r].seed);
    EXPECT_LE(a[r].drop_rate, spec.max_drop_rate);
    EXPECT_LE(a[r].corrupt_rate, spec.max_corrupt_rate);
    EXPECT_LE(a[r].reorder_rate, spec.max_reorder_rate);
  }
  // Adversarial rounds actually inject something.
  double injected = 0.0;
  for (std::size_t r = 1; r < a.size(); ++r) {
    injected += a[r].drop_rate + a[r].corrupt_rate + a[r].reorder_rate;
  }
  EXPECT_GT(injected, 0.0);
}

TEST(Campaign, JudgeFlagsEachInvariant) {
  net::SessionExecutionReport report;
  net::SessionExecution s;
  s.executed = true;
  s.completed = true;
  s.analytical_download_ms = 100.0;
  s.simulated_download_ms = 101.0;
  s.analytical_upload_ms = 10.0;
  s.simulated_upload_ms = 10.0;
  report.sessions.push_back(s);
  EXPECT_TRUE(
      net::JudgeExecution(report, {}, /*zero_loss=*/true).Passed());

  // Invariant 1: a download beating Eq. 1.
  report.sessions[0].simulated_download_ms = 99.0;
  auto round = net::JudgeExecution(report, {}, true);
  EXPECT_FALSE(round.q_bounded);
  report.sessions[0].simulated_download_ms = 101.0;

  // Invariant 1, zero-loss band: outside 1.05 q (no FC blocks planned).
  report.sessions[0].simulated_download_ms = 106.0;
  EXPECT_FALSE(net::JudgeExecution(report, {}, true).q_bounded);
  // ...allowed under injected loss.
  EXPECT_TRUE(net::JudgeExecution(report, {}, false).q_bounded);
  // The band widens by the per-block FC slack: 32 frames = 2 blocks of 16
  // buy 2 x 2.5 ms on top of 1.05 q.
  report.sessions[0].plan.download_frames = 32;
  EXPECT_TRUE(net::JudgeExecution(report, {}, true).q_bounded);
  report.sessions[0].simulated_download_ms = 111.0;
  EXPECT_FALSE(net::JudgeExecution(report, {}, true).q_bounded);
  report.sessions[0].plan.download_frames = 0;
  report.sessions[0].simulated_download_ms = 101.0;

  // Invariant 2: WCRT exceeded.
  report.sessions[0].wcrt_dominated = false;
  EXPECT_FALSE(net::JudgeExecution(report, {}, true).wcrt_dominated);
  report.sessions[0].wcrt_dominated = true;

  // Invariant 3: a functional (non-mirrored) slot pushed past its bound.
  net::WcrtSample w;
  w.bus_name = "can0";
  w.mirrored = false;
  w.observed_ms = 2.0;
  w.analytical_ms = 1.0;
  report.sessions[0].wcrt.push_back(w);
  round = net::JudgeExecution(report, {}, true);
  EXPECT_FALSE(round.non_intrusive);
  // A mirrored sample over its own bound is not a non-intrusiveness hit.
  report.sessions[0].wcrt[0].mirrored = true;
  EXPECT_TRUE(net::JudgeExecution(report, {}, true).non_intrusive);
}

// Pin: every field of every SessionExecution of a 3-round campaign on a
// generated 3-bus topology, recorded from the serial executor on the
// map-and-heap engine. Every ECU runs its last profile with its patterns on
// a remote memory, so each session downloads over mirrored slots.
TEST(Campaign, GeneratedTopologyExecutionsArePinned) {
  CorpusSpec corpus;
  corpus.seed = 1;
  corpus.min_ecus = corpus.max_ecus = 20;
  corpus.min_buses = corpus.max_buses = 3;
  corpus.profile_pool = casestudy::ScaledTableI(1.0 / 256, 4);
  const Topology topo =
      GenerateTopology(SampleTopologySpec(corpus, 1), TopologySeed(corpus, 1));
  ASSERT_EQ(topo.buses.size(), 3u);

  dse::SatDecoder decoder(topo.spec, topo.augmentation);
  moea::Genotype g;
  g.priorities.assign(decoder.GenotypeSize(), 0.5);
  g.phases.assign(decoder.GenotypeSize(), 0);
  const auto mappings = topo.spec.Mappings();
  for (const auto& [ecu, programs] : topo.augmentation.programs_by_ecu) {
    const auto& prog = programs.back();
    for (std::size_t m : topo.spec.MappingsOfTask(prog.test_task)) {
      g.phases[m] = 1;
      g.priorities[m] = 0.9;
    }
    for (std::size_t m : topo.spec.MappingsOfTask(prog.data_task)) {
      const bool remote = mappings[m].resource != ecu;
      g.phases[m] = remote ? 1 : 0;
      g.priorities[m] = remote ? 0.8 : 0.1;
    }
  }
  const auto impl = decoder.Decode(g);
  ASSERT_TRUE(impl.has_value());

  net::CampaignScheduleSpec schedule;
  schedule.rounds = 3;
  const net::CampaignReport campaign = net::RunAdversarialCampaign(
      topo.spec, topo.augmentation, *impl, net::SessionExecutorOptions{},
      schedule);
  ASSERT_EQ(campaign.rounds.size(), 4u);
  EXPECT_TRUE(campaign.Passed());
  std::size_t executed = 0;
  for (const auto& s : campaign.rounds[0].report.sessions) {
    executed += s.executed && !s.plan.patterns_local;
  }
  EXPECT_EQ(executed, 13u);
  testing::ExecutionHasher hash;
  hash.Campaign(campaign);
  EXPECT_EQ(hash.Value(), 0x981688c6a8c5d789ULL);
}

// --- end-to-end sweep ------------------------------------------------------

TEST(CorpusSweep, InvariantsHoldOnSmallFamilies) {
  CorpusSpec corpus = SmallCorpus();
  corpus.count = 2;
  corpus.max_ecus = 10;
  corpus.max_buses = 3;

  CorpusSweepOptions options;
  options.exploration.evaluations = 120;
  options.exploration.population_size = 12;
  options.exploration.seed = 11;
  options.campaign.rounds = 2;

  const auto report = SweepCorpus(corpus, options);
  ASSERT_EQ(report.topologies.size(), 2u);
  EXPECT_TRUE(report.all_passed) << FormatCorpusReport(report);
  // Baseline + 2 adversarial rounds per topology.
  EXPECT_EQ(report.rounds_executed, 6u);
  for (const auto& t : report.topologies) {
    EXPECT_GT(t.pareto_size, 0u);
    EXPECT_TRUE(t.campaign.all_q_bounded);
    EXPECT_TRUE(t.campaign.all_wcrt_dominated);
    EXPECT_TRUE(t.campaign.all_non_intrusive);
  }
}

// Front fingerprint on the future case study through the generator — the
// whole DSE behaves identically, not just the input graph (pinned pre-
// refactor with evals=400, pop=24, seed=8 on the 3-profile small set).
TEST(BitIdentity, FutureFrontFingerprint) {
  auto small = casestudy::PaperTableI();
  small.resize(3);
  auto cs = casestudy::BuildFutureCaseStudy(small, {}, 43);
  dse::ExplorationConfig cfg;
  cfg.evaluations = 400;
  cfg.population_size = 24;
  cfg.seed = 8;
  const auto result = dse::ExploreParallel(cs.spec, cs.augmentation, cfg, 1);

  std::uint64_t h = 1469598103934665603ULL;
  const auto bytes = [&h](const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 1099511628211ULL;
    }
  };
  const auto u64 = [&bytes](std::uint64_t v) { bytes(&v, sizeof v); };
  u64(result.pareto.size());
  for (const auto& e : result.pareto) {
    const auto v = e.objectives.ToMinimizationVector();
    u64(v.size());
    for (double d : v) bytes(&d, sizeof d);
    u64(e.implementation.binding.size());
    for (std::size_t m : e.implementation.binding) u64(m);
  }
  EXPECT_EQ(result.pareto.size(), 55u);
  EXPECT_EQ(h, 0xdc39838a92b7e23eULL);
}

}  // namespace
}  // namespace bistdse::arch
