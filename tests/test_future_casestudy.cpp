#include <gtest/gtest.h>

#include "casestudy/casestudy.hpp"
#include "dse/decoder.hpp"
#include "dse/parallel.hpp"
#include "dse/objectives.hpp"
#include "test_helpers.hpp"

namespace bistdse::casestudy {
namespace {

std::vector<bist::BistProfile> SmallSet() {
  auto p = PaperTableI();
  p.resize(3);
  return p;
}

TEST(FutureCaseStudy, BuildsHeterogeneousFleet) {
  const auto cs = BuildFutureCaseStudy(SmallSet(), {}, 43);
  bistdse::testing::ExpectValidTopology(cs);
  EXPECT_EQ(cs.ecus.size(), 20u);
  EXPECT_EQ(cs.sensors.size(), 12u);
  EXPECT_EQ(cs.actuators.size(), 8u);
  EXPECT_EQ(cs.buses.size(), 4u);
  // 6 apps: tasks = 12 sense + 38 proc + 8 act = 58; messages = 58 - 6.
  EXPECT_EQ(cs.functional_task_count, 58u);
  EXPECT_EQ(cs.functional_message_count, 52u);
  // Two CUT generations, ten ECUs each.
  std::size_t gen0 = 0, gen1 = 0;
  for (const auto& [ecu, type] : cs.cut_type_by_ecu) {
    (type == 0 ? gen0 : gen1)++;
  }
  EXPECT_EQ(gen0, 10u);
  EXPECT_EQ(gen1, 10u);
  // Backbone bus is faster.
  EXPECT_GT(cs.spec.Architecture().GetResource(cs.buses[3]).bus_bitrate_bps,
            cs.spec.Architecture().GetResource(cs.buses[0]).bus_bitrate_bps);
}

TEST(FutureCaseStudy, DerivedGen1ProfilesAreScaled) {
  const auto cs = BuildFutureCaseStudy(SmallSet(), {}, 43);
  const auto& app = cs.spec.Application();
  // Find one program per generation with the same profile index and compare
  // the data task sizes.
  const auto& progs0 = cs.augmentation.programs_by_ecu.at(cs.ecus[0]);
  const auto& progs1 = cs.augmentation.programs_by_ecu.at(cs.ecus[19]);
  ASSERT_EQ(progs0.size(), progs1.size());
  EXPECT_EQ(progs0[0].cut_type, 0u);
  EXPECT_EQ(progs1[0].cut_type, 1u);
  EXPECT_EQ(app.GetTask(progs1[0].data_task).data_bytes,
            3 * app.GetTask(progs0[0].data_task).data_bytes);
}

TEST(FutureCaseStudy, GatewaySharingRespectsCutTypes) {
  auto cs = BuildFutureCaseStudy(SmallSet(), {}, 43);
  dse::SatDecoder decoder(cs.spec, cs.augmentation, true);

  // Select profile 0 on one gen-0 ECU and one gen-1 ECU, both at the
  // gateway: two copies must be stored (no cross-type sharing).
  moea::Genotype g;
  g.priorities.assign(decoder.GenotypeSize(), 0.5);
  g.phases.assign(decoder.GenotypeSize(), 0);
  const auto mappings = cs.spec.Mappings();
  int selected = 0;
  for (model::ResourceId ecu : {cs.ecus[0], cs.ecus[19]}) {
    const auto& prog = cs.augmentation.programs_by_ecu.at(ecu)[0];
    for (std::size_t m : cs.spec.MappingsOfTask(prog.test_task)) {
      g.phases[m] = 1;
      g.priorities[m] = 0.9;
    }
    for (std::size_t m : cs.spec.MappingsOfTask(prog.data_task)) {
      if (mappings[m].resource == cs.gateway) {
        g.phases[m] = 1;
        g.priorities[m] = 0.8;
      } else {
        g.priorities[m] = 0.1;
      }
    }
    ++selected;
  }
  ASSERT_EQ(selected, 2);
  const auto impl = decoder.Decode(g);
  ASSERT_TRUE(impl.has_value());
  const auto obj = dse::EvaluateImplementation(cs.spec, cs.augmentation, *impl);
  const auto& app = cs.spec.Application();
  const std::uint64_t gen0_bytes = app.GetTask(
      cs.augmentation.programs_by_ecu.at(cs.ecus[0])[0].data_task).data_bytes;
  const std::uint64_t gen1_bytes = app.GetTask(
      cs.augmentation.programs_by_ecu.at(cs.ecus[19])[0].data_task).data_bytes;
  // May include more selections if the decoder was forced to bind others —
  // it is not: only the two programs have phase-true test tasks.
  EXPECT_EQ(obj.ecus_with_bist, 2u);
  EXPECT_EQ(obj.gateway_memory_bytes, gen0_bytes + gen1_bytes);
}

TEST(FutureCaseStudy, SameTypeStillShares) {
  auto cs = BuildFutureCaseStudy(SmallSet(), {}, 43);
  dse::SatDecoder decoder(cs.spec, cs.augmentation, true);
  moea::Genotype g;
  g.priorities.assign(decoder.GenotypeSize(), 0.5);
  g.phases.assign(decoder.GenotypeSize(), 0);
  const auto mappings = cs.spec.Mappings();
  for (model::ResourceId ecu : {cs.ecus[0], cs.ecus[1]}) {  // both gen 0
    const auto& prog = cs.augmentation.programs_by_ecu.at(ecu)[0];
    for (std::size_t m : cs.spec.MappingsOfTask(prog.test_task)) {
      g.phases[m] = 1;
      g.priorities[m] = 0.9;
    }
    for (std::size_t m : cs.spec.MappingsOfTask(prog.data_task)) {
      if (mappings[m].resource == cs.gateway) {
        g.phases[m] = 1;
        g.priorities[m] = 0.8;
      } else {
        g.priorities[m] = 0.1;
      }
    }
  }
  const auto impl = decoder.Decode(g);
  ASSERT_TRUE(impl.has_value());
  const auto obj = dse::EvaluateImplementation(cs.spec, cs.augmentation, *impl);
  const auto& app = cs.spec.Application();
  EXPECT_EQ(obj.ecus_with_bist, 2u);
  EXPECT_EQ(obj.gateway_memory_bytes,
            app.GetTask(cs.augmentation.programs_by_ecu.at(cs.ecus[0])[0]
                            .data_task).data_bytes);
}

TEST(FutureCaseStudy, ExplorationFindsFront) {
  auto cs = BuildFutureCaseStudy(SmallSet(), {}, 43);
  dse::ExplorationConfig cfg;
  cfg.evaluations = 500;
  cfg.population_size = 24;
  cfg.seed = 8;
  cfg.validate_each_decode = true;
  const auto result = dse::ExploreParallel(cs.spec, cs.augmentation, cfg, 1);
  EXPECT_GT(result.pareto.size(), 3u);
  EXPECT_EQ(result.decoder_stats.validation_failures, 0u);
}

}  // namespace
}  // namespace bistdse::casestudy
