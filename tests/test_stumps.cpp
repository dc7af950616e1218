#include <gtest/gtest.h>

#include <bit>

#include "bist/diagnosis.hpp"
#include "bist/fault_dictionary.hpp"
#include "bist/stumps.hpp"
#include "sim/fault.hpp"
#include "sim/fault_sim.hpp"
#include "sim/pattern_set.hpp"
#include "test_helpers.hpp"

namespace bistdse::bist {
namespace {

using sim::CollapsedFaults;
using sim::StuckAtFault;

StumpsConfig SmallConfig() {
  StumpsConfig cfg;
  cfg.signature_window = 16;
  cfg.prpg_degree = 32;
  cfg.prpg_seed = 0xACE1;
  return cfg;
}

TEST(Stumps, GoldenRunPasses) {
  auto nl = bistdse::testing::MakeSmallRandom(51, 200);
  StumpsSession session(nl, SmallConfig());
  const auto result = session.Run(256, {}, std::nullopt);
  EXPECT_TRUE(result.pass);
  EXPECT_TRUE(result.fail_data.empty());
  EXPECT_EQ(result.total_patterns, 256u);
  EXPECT_EQ(result.window_signatures.size(), 256u / 16);
}

TEST(Stumps, SignaturesAreDeterministic) {
  auto nl = bistdse::testing::MakeSmallRandom(51, 200);
  StumpsSession a(nl, SmallConfig());
  StumpsSession b(nl, SmallConfig());
  EXPECT_EQ(a.Run(128, {}, std::nullopt).window_signatures,
            b.Run(128, {}, std::nullopt).window_signatures);
}

TEST(Stumps, InjectedFaultProducesFailData) {
  auto nl = bistdse::testing::MakeSmallRandom(53, 200);
  StumpsSession session(nl, SmallConfig());

  // Pick a fault that random patterns detect quickly (stem of a PO driver).
  const StuckAtFault fault{nl.PrimaryOutputs()[0], -1, true};
  const auto result = session.Run(512, {}, fault);
  // The PO driver stem is almost surely detected in 512 random patterns;
  // if it were constant-true this test would be vacuous.
  ASSERT_FALSE(result.pass);
  ASSERT_FALSE(result.fail_data.empty());
  for (const auto& fd : result.fail_data) {
    EXPECT_NE(fd.observed_signature, fd.expected_signature);
    EXPECT_LT(fd.window_index, result.window_signatures.size());
  }
}

TEST(Stumps, FailDataMatchesDetectionWindows) {
  // With per-window MISR reset, a window fails iff it contains a detecting
  // pattern (modulo MISR aliasing, ~2^-32): cross-check against the fault
  // simulator over the same PRPG stream.
  auto nl = bistdse::testing::MakeSmallRandom(55, 200);
  const auto cfg = SmallConfig();
  StumpsSession session(nl, cfg);
  const std::size_t width = nl.CoreInputs().size();

  const auto faults = CollapsedFaults(nl);
  const StuckAtFault fault = faults[faults.size() / 2];
  const std::uint64_t num_patterns = 256;
  const auto result = session.Run(num_patterns, {}, fault);

  // Recreate the stream and compute expected failing windows.
  sim::FaultSimulator fsim(nl);
  Lfsr prpg(Lfsr::DefaultPolynomial(cfg.prpg_degree), cfg.prpg_seed);
  std::vector<std::uint8_t> window_fails(num_patterns / cfg.signature_window +
                                             1,
                                         0);
  std::vector<sim::BitPattern> block;
  std::uint64_t base = 0;
  while (base < num_patterns) {
    block.clear();
    const std::size_t count =
        std::min<std::uint64_t>(64, num_patterns - base);
    for (std::size_t k = 0; k < count; ++k) block.push_back(prpg.Emit(width));
    fsim.SetPatternBlock(sim::PackPatternBlock(block, 0, count, width));
    auto det = fsim.DetectWord(fault) & sim::BlockMask(count);
    while (det) {
      const int k = std::countr_zero(det);
      det &= det - 1;
      window_fails[(base + k) / cfg.signature_window] = 1;
    }
    base += count;
  }

  std::vector<std::uint8_t> observed(window_fails.size(), 0);
  for (const auto& fd : result.fail_data) observed[fd.window_index] = 1;
  for (std::size_t w = 0; w * cfg.signature_window < num_patterns; ++w) {
    EXPECT_EQ(observed[w], window_fails[w]) << "window " << w;
  }
}

TEST(Stumps, DeterministicSeedsAreApplied) {
  auto nl = bistdse::testing::MakeSmallRandom(57, 150);
  const std::size_t width = nl.CoreInputs().size();
  ReseedingEncoder encoder(static_cast<std::uint32_t>(width));

  atpg::TestCube cube;
  cube.bits.assign(width, atpg::Value3::X);
  cube.bits[0] = atpg::Value3::One;
  const auto enc = encoder.Encode(cube);
  ASSERT_TRUE(enc.has_value());

  StumpsSession session(nl, SmallConfig());
  std::vector<EncodedPattern> det = {*enc};
  const auto with_det = session.Run(64, det, std::nullopt);
  EXPECT_EQ(with_det.total_patterns, 65u);

  StumpsSession session2(nl, SmallConfig());
  const auto without = session2.Run(64, {}, std::nullopt);
  // The extra pattern extends/changes the final window signature chain.
  EXPECT_NE(with_det.window_signatures.size(),
            without.window_signatures.size());
}

TEST(Stumps, RuntimeModel) {
  StumpsConfig cfg;
  cfg.max_chain_length = 77;
  cfg.test_frequency_hz = 40e6;
  EXPECT_EQ(cfg.CyclesPerPattern(), 78u);
  // 500,000 patterns at 78 cycles / 40 MHz = 975 ms (paper's profile 33-36
  // land at ~963-965 ms for 500k PRPs, same magnitude).
  EXPECT_NEAR(cfg.PatternTimeMs(500000), 975.0, 1.0);
}

TEST(Stumps, ResponseDataBytes) {
  auto nl = bistdse::testing::MakeSmallRandom(59, 100);
  StumpsConfig cfg = SmallConfig();
  StumpsSession session(nl, cfg);
  // 100 patterns, window 16 -> 7 windows x 4 bytes.
  EXPECT_EQ(session.ResponseDataBytes(100), 7u * 4u);
}

TEST(Stumps, EnginesRejectUnusableSignatureLayouts) {
  auto nl = bistdse::testing::MakeSmallRandom(53, 100);
  const auto faults = CollapsedFaults(nl);
  struct Case {
    std::uint32_t window;
    std::uint32_t misr_width;
    const char* field;
  };
  for (const Case& c : {Case{0, 32, "signature_window"},
                        Case{16, 0, "misr_width"},
                        Case{16, 65, "misr_width"}}) {
    StumpsConfig cfg = SmallConfig();
    cfg.signature_window = c.window;
    cfg.misr_width = c.misr_width;
    const auto expect_rejected = [&](const char* engine, auto construct) {
      try {
        construct();
        ADD_FAILURE() << engine << " accepted " << c.field;
      } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find(c.field), std::string::npos)
            << engine << ": " << e.what();
      }
    };
    // A zero window with an empty session is the EffectiveWindow() == 0
    // case that used to divide by zero.
    expect_rejected("StumpsSession", [&] { StumpsSession s(nl, cfg); });
    expect_rejected("SignatureDiagnosis",
                    [&] { SignatureDiagnosis d(nl, cfg, 0, {}); });
    expect_rejected("FaultDictionary",
                    [&] { FaultDictionary d(nl, cfg, 0, {}, faults); });
  }
}

}  // namespace
}  // namespace bistdse::bist
