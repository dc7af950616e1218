#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "casestudy/casestudy.hpp"
#include "dse/decoder.hpp"
#include "dse/objectives.hpp"
#include "dse/routing_encoding.hpp"
#include "util/rng.hpp"

namespace bistdse::dse {
namespace {

/// Small spec with BIST on two ECUs for routing tests.
struct RoutedFixture {
  model::Specification spec;
  model::BistAugmentation augmentation;
  model::ResourceId ecu1 = 0, ecu2 = 0, gateway = 0, bus1 = 0, bus2 = 0,
                    sensor = 0;
  model::TaskId t_sense = 0, t_ctrl = 0;

  explicit RoutedFixture(bool redundant_buses = false) {
    auto& arch = spec.Architecture();
    gateway = arch.AddResource(
        {"gw", model::ResourceKind::Gateway, 20.0, 1e-6, 0});
    bus1 = arch.AddResource({"can0", model::ResourceKind::Bus, 1.0, 0, 500e3});
    bus2 = arch.AddResource({"can1", model::ResourceKind::Bus, 1.0, 0, 500e3});
    ecu1 = arch.AddResource({"ecu1", model::ResourceKind::Ecu, 10.0, 2e-5, 0});
    ecu2 = arch.AddResource({"ecu2", model::ResourceKind::Ecu, 12.0, 2e-5, 0});
    sensor =
        arch.AddResource({"sensor", model::ResourceKind::Sensor, 2.0, 0, 0});
    arch.AddLink(bus1, gateway);
    arch.AddLink(bus2, gateway);
    arch.AddLink(ecu1, bus1);
    arch.AddLink(ecu2, bus2);
    arch.AddLink(sensor, bus1);
    if (redundant_buses) {
      // A second path between the segments: ECUs also share a direct bus.
      const auto bus3 = arch.AddResource(
          {"can2", model::ResourceKind::Bus, 1.0, 0, 500e3});
      arch.AddLink(ecu1, bus3);
      arch.AddLink(ecu2, bus3);
    }

    auto& app = spec.Application();
    model::Task sense;
    sense.name = "sense";
    t_sense = app.AddTask(sense);
    model::Task ctrl;
    ctrl.name = "ctrl";
    t_ctrl = app.AddTask(ctrl);
    model::Message m;
    m.name = "m";
    m.sender = t_sense;
    m.receivers = {t_ctrl};
    m.payload_bytes = 4;
    m.period_ms = 10;
    app.AddMessage(m);
    spec.AddMapping(t_sense, sensor);
    spec.AddMapping(t_ctrl, ecu1);
    spec.AddMapping(t_ctrl, ecu2);

    std::map<model::ResourceId, std::vector<bist::BistProfile>> profiles;
    bist::BistProfile p;
    p.profile_number = 1;
    p.num_random_patterns = 500;
    p.fault_coverage_percent = 99.0;
    p.runtime_ms = 4.0;
    p.data_bytes = 100000;
    profiles[ecu1] = {p};
    profiles[ecu2] = {p};
    augmentation = model::AugmentWithBist(spec, profiles);
    spec.Validate();
  }
};

TEST(RoutingEncoding, DecodesFeasibleImplementations) {
  RoutedFixture fx;
  RoutedSatDecoder decoder(fx.spec, fx.augmentation);
  util::SplitMix64 rng(1);
  for (int trial = 0; trial < 30; ++trial) {
    const auto genotype =
        moea::RandomGenotypeBiased(decoder.GenotypeSize(), rng.UnitReal(), rng);
    const auto impl = decoder.Decode(genotype);
    ASSERT_TRUE(impl.has_value()) << "trial " << trial;
    const auto violations = model::ValidateImplementation(fx.spec, *impl);
    ASSERT_TRUE(violations.empty()) << violations[0] << " trial " << trial;
  }
}

TEST(RoutingEncoding, DecodeRejectsMalformedGenotypes) {
  RoutedFixture fx;
  RoutedSatDecoder decoder(fx.spec, fx.augmentation);
  util::SplitMix64 rng(2);
  const auto genotype = moea::RandomGenotype(decoder.GenotypeSize(), rng);

  auto short_phases = genotype;
  short_phases.phases.pop_back();
  EXPECT_THROW(decoder.Decode(short_phases), std::invalid_argument);
  auto nan_priority = genotype;
  nan_priority.priorities.front() = std::nan("");
  EXPECT_THROW(decoder.Decode(nan_priority), std::invalid_argument);
  EXPECT_TRUE(decoder.Decode(genotype).has_value());
}

TEST(RoutingEncoding, CrossSegmentRouteGoesThroughGateway) {
  RoutedFixture fx;
  RoutedSatDecoder decoder(fx.spec, fx.augmentation);
  // Prefer ctrl on ecu2 (cross segment from the sensor on bus1).
  moea::Genotype g;
  g.priorities.assign(decoder.GenotypeSize(), 0.5);
  g.phases.assign(decoder.GenotypeSize(), 0);
  const auto ctrl_opts = fx.spec.MappingsOfTask(fx.t_ctrl);
  for (std::size_t m : ctrl_opts) {
    if (fx.spec.Mappings()[m].resource == fx.ecu2) {
      g.phases[m] = 1;
      g.priorities[m] = 0.99;
    }
  }
  const auto impl = decoder.Decode(g);
  ASSERT_TRUE(impl.has_value());
  ASSERT_EQ(impl->BoundResource(fx.spec, fx.t_ctrl), fx.ecu2);
  const auto& path = impl->routing.at(0);  // functional message id 0
  // sensor -> can0 -> gw -> can1 -> ecu2 must be a prefix of the walk.
  ASSERT_GE(path.size(), 5u);
  EXPECT_EQ(path[0], fx.sensor);
  EXPECT_EQ(path[1], fx.bus1);
  EXPECT_EQ(path[2], fx.gateway);
  EXPECT_EQ(path[3], fx.bus2);
  EXPECT_EQ(path[4], fx.ecu2);
}

TEST(RoutingEncoding, AgreesWithDerivedDecoderOnTreeTopology) {
  // On a tree architecture both decoders must produce the same binding and
  // equally feasible implementations for the same genotype.
  auto profiles = casestudy::PaperTableI();
  profiles.resize(2);
  auto cs = casestudy::BuildCaseStudy(profiles, 42);

  SatDecoder derived(cs.spec, cs.augmentation);
  RoutedSatDecoder routed(cs.spec, cs.augmentation, 5);
  ASSERT_EQ(derived.GenotypeSize(), routed.GenotypeSize());

  util::SplitMix64 rng(3);
  for (int trial = 0; trial < 5; ++trial) {
    const auto genotype =
        moea::RandomGenotypeBiased(derived.GenotypeSize(), 0.2, rng);
    const auto a = derived.Decode(genotype);
    const auto b = routed.Decode(genotype);
    ASSERT_TRUE(a.has_value());
    ASSERT_TRUE(b.has_value());
    // Same genotype, same decision order over the same mapping variables:
    // the binding must be identical.
    EXPECT_EQ(a->binding, b->binding) << "trial " << trial;
    EXPECT_TRUE(model::ValidateImplementation(cs.spec, *b).empty());
    // Identical objectives up to possible route tails (which affect only
    // allocation; compare quality and shut-off).
    const auto oa = EvaluateImplementation(cs.spec, cs.augmentation, *a);
    const auto ob = EvaluateImplementation(cs.spec, cs.augmentation, *b);
    EXPECT_DOUBLE_EQ(oa.test_quality_percent, ob.test_quality_percent);
    EXPECT_DOUBLE_EQ(oa.shutoff_time_ms, ob.shutoff_time_ms);
  }
}

/// FNV-1a fingerprint over decoded implementations (binding + full routing).
/// The recorded constants were produced by the pre-refactor solver; the
/// layered core must reproduce them bit-identically in its default config.
struct ImplFingerprint {
  std::uint64_t h = 1469598103934665603ULL;
  void U64(std::uint64_t v) {
    const auto* p = reinterpret_cast<const unsigned char*>(&v);
    for (std::size_t i = 0; i < sizeof v; ++i) {
      h ^= p[i];
      h *= 1099511628211ULL;
    }
  }
  void Add(const model::Implementation& impl) {
    U64(impl.binding.size());
    for (std::size_t m : impl.binding) U64(m);
    U64(impl.routing.size());
    for (const auto& [c, path] : impl.routing) {
      U64(c);
      U64(path.size());
      for (auto r : path) U64(r);
    }
  }
};

TEST(RoutingEncoding, DecodeFingerprintMatchesSeedSolverOnFixture) {
  RoutedFixture fx;
  RoutedSatDecoder decoder(fx.spec, fx.augmentation);
  util::SplitMix64 rng(1);
  ImplFingerprint f;
  for (int trial = 0; trial < 30; ++trial) {
    const auto genotype =
        moea::RandomGenotypeBiased(decoder.GenotypeSize(), rng.UnitReal(), rng);
    const auto impl = decoder.Decode(genotype);
    ASSERT_TRUE(impl.has_value()) << "trial " << trial;
    f.Add(*impl);
  }
  EXPECT_EQ(f.h, 0x56454691c678fe0fULL);
  // Decode telemetry flows through the routed decoder as well.
  EXPECT_EQ(decoder.Stats().decodes, 30u);
  EXPECT_GT(decoder.Stats().decode_seconds, 0.0);
  EXPECT_GT(decoder.Stats().solver.propagations, 0u);
}

TEST(RoutingEncoding, DecodeFingerprintMatchesSeedSolverOnCaseStudy) {
  auto profiles = casestudy::PaperTableI();
  profiles.resize(2);
  auto cs = casestudy::BuildCaseStudy(profiles, 42);
  RoutedSatDecoder routed(cs.spec, cs.augmentation, 5);
  util::SplitMix64 rng(3);
  ImplFingerprint f;
  for (int trial = 0; trial < 5; ++trial) {
    const auto genotype =
        moea::RandomGenotypeBiased(routed.GenotypeSize(), 0.2, rng);
    const auto impl = routed.Decode(genotype);
    ASSERT_TRUE(impl.has_value()) << "trial " << trial;
    f.Add(*impl);
  }
  EXPECT_EQ(f.h, 0x82d60ba76425e5cfULL);
}

TEST(RoutingEncoding, SupportsRedundantArchitectures) {
  // With a redundant direct bus between the ECUs, the derived shortest-path
  // router always picks one route; the full encoding may pick either — both
  // must validate.
  RoutedFixture fx(/*redundant_buses=*/true);
  RoutedSatDecoder decoder(fx.spec, fx.augmentation);
  util::SplitMix64 rng(9);
  for (int trial = 0; trial < 20; ++trial) {
    const auto genotype =
        moea::RandomGenotypeBiased(decoder.GenotypeSize(), rng.UnitReal(), rng);
    const auto impl = decoder.Decode(genotype);
    ASSERT_TRUE(impl.has_value());
    const auto violations = model::ValidateImplementation(fx.spec, *impl);
    ASSERT_TRUE(violations.empty()) << violations[0];
  }
}

TEST(RoutingEncoding, HopBoundPrunesVariablesAndRoutes) {
  RoutedFixture fx;
  RoutedEncodedProblem tight(fx.spec, fx.augmentation, 2);
  RoutedEncodedProblem wide(fx.spec, fx.augmentation, 5);
  // Fewer hops -> fewer candidate resources and time steps.
  EXPECT_LT(tight.VariableCount(), wide.VariableCount());
  EXPECT_GT(tight.VariableCount(), fx.spec.Mappings().size());

  // With 2 hops the cross-segment binding (sensor..ecu2 needs 4 hops) is
  // encoded as forbidden; the decoder must fall back to ecu1 even when the
  // genotype prefers ecu2.
  RoutedSatDecoder decoder(fx.spec, fx.augmentation, 2);
  moea::Genotype g;
  g.priorities.assign(decoder.GenotypeSize(), 0.5);
  g.phases.assign(decoder.GenotypeSize(), 0);
  for (std::size_t m : fx.spec.MappingsOfTask(fx.t_ctrl)) {
    if (fx.spec.Mappings()[m].resource == fx.ecu2) {
      g.phases[m] = 1;
      g.priorities[m] = 0.99;
    }
  }
  const auto impl = decoder.Decode(g);
  ASSERT_TRUE(impl.has_value());
  EXPECT_EQ(impl->BoundResource(fx.spec, fx.t_ctrl), fx.ecu1);
}

}  // namespace
}  // namespace bistdse::dse
