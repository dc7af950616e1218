// Parameterized property sweeps across seeds and sizes (TEST_P).
#include <gtest/gtest.h>

#include "atpg/podem.hpp"
#include "bus_engine.hpp"
#include "atpg/tpg.hpp"
#include <set>

#include "bist/reseeding.hpp"
#include "can/mirroring.hpp"
#include "casestudy/casestudy.hpp"
#include "dse/decoder.hpp"
#include "model/implementation.hpp"
#include "netlist/random_circuit.hpp"
#include "sim/fault_sim.hpp"
#include "sim/pattern_set.hpp"
#include "util/rng.hpp"

namespace bistdse {
namespace {

// ---------------------------------------------------------------------------
// Property: for every seed, every PODEM cube verified by fault simulation;
// every claimed-untestable fault resists thousands of random patterns.
class PodemSoundness : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PodemSoundness, CubesDetectTheirFaults) {
  netlist::RandomCircuitSpec spec;
  spec.num_inputs = 10;
  spec.num_outputs = 6;
  spec.num_flops = 16;
  spec.num_gates = 180;
  spec.num_hard_blocks = 2;
  spec.hard_block_width = 6;
  spec.seed = GetParam();
  const auto nl = netlist::GenerateRandomCircuit(spec);

  atpg::Podem podem(nl, 300);
  sim::FaultSimulator fsim(nl);
  const auto faults = sim::CollapsedFaults(nl);
  const std::size_t width = nl.CoreInputs().size();

  for (std::size_t fi = 0; fi < faults.size(); fi += 3) {
    const auto result = podem.Generate(faults[fi]);
    if (result.outcome == atpg::PodemOutcome::Detected) {
      std::vector<sim::PatternWord> words(width);
      for (std::size_t i = 0; i < width; ++i) {
        words[i] =
            result.cube.bits[i] == atpg::Value3::One ? ~sim::PatternWord{0} : 0;
      }
      fsim.SetPatternBlock(words);
      EXPECT_NE(fsim.DetectWord(faults[fi]) & 1, 0u)
          << sim::ToString(nl, faults[fi]) << " seed " << GetParam();
    } else if (result.outcome == atpg::PodemOutcome::Untestable) {
      util::SplitMix64 rng(GetParam() ^ 0xabcdef);
      std::vector<sim::PatternWord> words(width);
      for (int block = 0; block < 32; ++block) {
        for (auto& w : words) w = rng();
        fsim.SetPatternBlock(words);
        ASSERT_EQ(fsim.DetectWord(faults[fi]), 0u)
            << sim::ToString(nl, faults[fi]) << " seed " << GetParam();
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PodemSoundness,
                         ::testing::Values(101, 202, 303, 404, 505));

// ---------------------------------------------------------------------------
// Property: reseeding expansion honors every care bit across densities.
class ReseedingProperty
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(ReseedingProperty, ExpansionHonorsCareBits) {
  const auto [width, care] = GetParam();
  util::SplitMix64 rng(width * 1000 + care);
  bist::ReseedingEncoder encoder(static_cast<std::uint32_t>(width));
  for (int trial = 0; trial < 10; ++trial) {
    atpg::TestCube cube;
    cube.bits.assign(width, atpg::Value3::X);
    for (int placed = 0; placed < care;) {
      const auto pos = static_cast<std::size_t>(rng.Below(width));
      if (cube.bits[pos] != atpg::Value3::X) continue;
      cube.bits[pos] = rng.Chance(0.5) ? atpg::Value3::One : atpg::Value3::Zero;
      ++placed;
    }
    const auto enc = encoder.Encode(cube);
    ASSERT_TRUE(enc.has_value());
    const auto expanded = encoder.Expand(*enc);
    for (int i = 0; i < width; ++i) {
      if (cube.bits[i] == atpg::Value3::X) continue;
      ASSERT_EQ(expanded[i], cube.bits[i] == atpg::Value3::One ? 1 : 0)
          << "width " << width << " care " << care << " trial " << trial;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, ReseedingProperty,
    ::testing::Combine(::testing::Values(64, 200, 500),
                       ::testing::Values(4, 16, 48)));

// ---------------------------------------------------------------------------
// Property: analytical CAN WCRT bounds dominate simulation for random
// schedulable message sets.
class CanBoundProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CanBoundProperty, AnalysisDominatesSimulation) {
  util::SplitMix64 rng(GetParam());
  can::CanBus bus("b", 500e3);
  const int n = 4 + static_cast<int>(rng.Below(8));
  for (int i = 0; i < n; ++i) {
    can::CanMessage m;
    m.id = static_cast<can::CanId>(i * 8);
    m.payload_bytes = static_cast<std::uint32_t>(1 + rng.Below(8));
    const double periods[] = {5, 10, 20, 50, 100};
    m.period_ms = periods[rng.Below(5)];
    m.name = std::string(1, 'm');
    m.name += std::to_string(i);
    bus.AddMessage(m);
  }
  if (!testing::Schedulable(bus)) GTEST_SKIP() << "random set unschedulable";

  const auto sim_result = testing::RunBusOnEngine(bus, 2000.0);
  for (const auto& [id, stats] : sim_result.per_id) {
    const auto bound = bus.ResponseTime(id);
    ASSERT_TRUE(bound.has_value());
    EXPECT_LE(stats.max_response_ms, bound->worst_case_ms + 1e-9)
        << "id " << id << " seed " << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CanBoundProperty,
                         ::testing::Range<std::uint64_t>(1, 13));

// ---------------------------------------------------------------------------
// Property (paper §III-B): on random schedulable buses, swapping one ECU's
// message set for its mirrored copies (1) never lets any simulated response
// exceed the analytical WCRT and (2) leaves the observed worst response of
// every non-swapped message bit-identical — mirrored traffic is invisible to
// the rest of the bus.
class MirroredSwapProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MirroredSwapProperty, MirroringIsInvisibleAndBounded) {
  util::SplitMix64 rng(GetParam() ^ 0x5eed);
  can::CanBus base("b", 500e3);
  const int n = 4 + static_cast<int>(rng.Below(8));
  for (int i = 0; i < n; ++i) {
    can::CanMessage m;
    m.id = static_cast<can::CanId>(i * 8);  // sparse: room for the +1 mirror
    m.payload_bytes = static_cast<std::uint32_t>(1 + rng.Below(8));
    const double periods[] = {5, 10, 20, 50, 100};
    m.period_ms = periods[rng.Below(5)];
    m.name = std::string(1, 'm');
    m.name += std::to_string(i);
    base.AddMessage(m);
  }
  if (!testing::Schedulable(base)) GTEST_SKIP() << "random set unschedulable";

  // A random non-empty strict subset plays the shut-off ECU's TX set.
  std::vector<can::CanMessage> ecu;
  can::CanBus swapped("b'", 500e3);
  for (const can::CanMessage& m : base.Messages()) {
    if (ecu.size() + 1 < base.Messages().size() && rng.Chance(0.4)) {
      ecu.push_back(m);
    } else {
      swapped.AddMessage(m);
    }
  }
  if (ecu.empty()) GTEST_SKIP() << "empty swap set";
  const auto mirrored = can::MakeMirroredMessages(ecu, 1);
  for (const can::CanMessage& m : mirrored) swapped.AddMessage(m);

  const auto rb = testing::RunBusOnEngine(base, 2000.0);
  const auto rs = testing::RunBusOnEngine(swapped, 2000.0);

  // (1) Analysis still dominates simulation on the swapped bus.
  for (const auto& [id, stats] : rs.per_id) {
    const auto bound = swapped.ResponseTime(id);
    ASSERT_TRUE(bound.has_value()) << "id " << id;
    EXPECT_LE(stats.max_response_ms, bound->worst_case_ms + 1e-9)
        << "id " << id << " seed " << GetParam();
  }

  // (2) Non-swapped messages observe exactly the same worst response.
  std::set<can::CanId> swapped_ids;
  for (const can::CanMessage& m : ecu) swapped_ids.insert(m.id);
  for (const auto& [id, stats] : rb.per_id) {
    if (swapped_ids.count(id) > 0) continue;
    EXPECT_DOUBLE_EQ(rs.Of(id).max_response_ms, stats.max_response_ms)
        << "id " << id << " seed " << GetParam();
    EXPECT_EQ(rs.Of(id).frames_sent, stats.frames_sent);
  }
  // And each mirror inherits its original's observed worst response.
  for (const can::CanMessage& m : ecu) {
    EXPECT_DOUBLE_EQ(rs.Of(m.id + 1).max_response_ms,
                     rb.Of(m.id).max_response_ms)
        << "mirror of id " << m.id << " seed " << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MirroredSwapProperty,
                         ::testing::Range<std::uint64_t>(1, 17));

// ---------------------------------------------------------------------------
// Property: every genotype decodes to an implementation satisfying the full
// constraint system (Eqs. 2a-2h, 3a, 3b) across seeds.
class DecoderFeasibility : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DecoderFeasibility, AllDecodesFeasible) {
  auto profiles = casestudy::PaperTableI();
  profiles.resize(3);
  auto cs = casestudy::BuildCaseStudy(profiles, 42);
  dse::SatDecoder decoder(cs.spec, cs.augmentation);
  util::SplitMix64 rng(GetParam());
  for (int trial = 0; trial < 20; ++trial) {
    const double bias = rng.UnitReal();
    const auto genotype =
        moea::RandomGenotypeBiased(decoder.GenotypeSize(), bias, rng);
    const auto impl = decoder.Decode(genotype);
    ASSERT_TRUE(impl.has_value());
    const auto violations = model::ValidateImplementation(cs.spec, *impl);
    ASSERT_TRUE(violations.empty())
        << violations[0] << " (seed " << GetParam() << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DecoderFeasibility,
                         ::testing::Values(11, 22, 33, 44));

// ---------------------------------------------------------------------------
// Property: deterministic TPG coverage is monotone in the pattern prefix.
class TpgMonotonicity : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TpgMonotonicity, PrefixCoverageIsMonotone) {
  netlist::RandomCircuitSpec spec;
  spec.num_inputs = 10;
  spec.num_outputs = 8;
  spec.num_flops = 12;
  spec.num_gates = 150;
  spec.num_hard_blocks = 1;
  spec.hard_block_width = 5;
  spec.seed = GetParam();
  const auto nl = netlist::GenerateRandomCircuit(spec);
  const auto faults = sim::CollapsedFaults(nl);
  const auto tpg = atpg::GenerateDeterministicPatterns(nl, faults);

  sim::FaultSimulator fsim(nl);
  const std::size_t width = nl.CoreInputs().size();
  std::vector<sim::StuckAtFault> remaining(faults.begin(), faults.end());
  std::size_t covered = 0;
  std::size_t prev_covered = 0;
  for (const auto& p : tpg.patterns) {
    std::vector<sim::PatternWord> words(width);
    for (std::size_t i = 0; i < width; ++i)
      words[i] = p[i] ? ~sim::PatternWord{0} : 0;
    fsim.SetPatternBlock(words);
    std::vector<sim::StuckAtFault> still;
    for (const auto& f : remaining) {
      if (fsim.DetectWord(f)) {
        ++covered;
      } else {
        still.push_back(f);
      }
    }
    remaining = std::move(still);
    EXPECT_GE(covered, prev_covered);
    prev_covered = covered;
  }
  EXPECT_EQ(covered, tpg.detected);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TpgMonotonicity,
                         ::testing::Values(7, 14, 21));

}  // namespace
}  // namespace bistdse
