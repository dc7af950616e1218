// Bit-identity tests of the streaming campaign kernel (sim::CampaignRunner):
// every consumer must produce byte-for-byte the same results for every
// (block_width, threads) combination, and the kernel itself must match a
// hand-written serial reference loop. These tests pin the determinism
// contract that lets the DSE treat parallelism and block width as pure
// throughput knobs.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "bist/campaign_sources.hpp"
#include "bist/diagnosis.hpp"
#include "bist/fault_dictionary.hpp"
#include "bist/pattern_source.hpp"
#include "bist/profile_generator.hpp"
#include "bist/stumps.hpp"
#include "sim/campaign.hpp"
#include "sim/fault_sim.hpp"
#include "sim/pattern_set.hpp"
#include "test_helpers.hpp"

namespace bistdse {
namespace {

using sim::BitPattern;
using sim::StuckAtFault;

// The width/thread grid every consumer must be invariant over.
struct GridPoint {
  std::size_t width;
  std::size_t threads;
};
const GridPoint kGrid[] = {{1, 1}, {2, 1}, {4, 1}, {8, 1}, {16, 1},
                           {1, 4}, {2, 4}, {4, 4}, {8, 4}, {16, 4}};

std::vector<BitPattern> PrpgPatterns(const netlist::Netlist& netlist,
                                     const bist::StumpsConfig& config,
                                     std::size_t count) {
  bist::PatternSource prpg(config, netlist.CoreInputs().size());
  std::vector<BitPattern> patterns;
  patterns.reserve(count);
  for (std::size_t i = 0; i < count; ++i) patterns.push_back(prpg.Next());
  return patterns;
}

/// Hand-written serial reference: one pattern at a time, faults dropped at
/// their first detection — the loop every legacy campaign used to inline.
std::vector<std::uint64_t> SerialFirstDetect(
    const netlist::Netlist& netlist, std::span<const BitPattern> patterns,
    std::span<const StuckAtFault> faults) {
  const std::size_t width = netlist.CoreInputs().size();
  // The reference deliberately runs without structural shortcuts: full event
  // propagation to the outputs, nothing shared with the shortcut paths.
  sim::FaultSimulatorT<1> fsim(netlist, /*structural_shortcuts=*/false);
  std::vector<std::uint64_t> first_detect(faults.size(), UINT64_MAX);
  for (std::size_t p = 0; p < patterns.size(); ++p) {
    fsim.SetPatternBlock(
        sim::PackPatternBlockWide(patterns, p, 1, width, 1));
    const auto mask = sim::BlockMaskWide<1>(1);
    bool any_alive = false;
    for (std::size_t f = 0; f < faults.size(); ++f) {
      if (first_detect[f] != UINT64_MAX) continue;
      if ((fsim.DetectBlock(faults[f]) & mask).Any()) {
        first_detect[f] = p;
      } else {
        any_alive = true;
      }
    }
    if (!any_alive) break;
  }
  return first_detect;
}

TEST(CampaignRunner, FirstDetectMatchesSerialReference) {
  const auto netlist = testing::MakeSmallRandom(7, 200);
  const bist::StumpsConfig config;
  const auto patterns = PrpgPatterns(netlist, config, 300);
  const auto faults = sim::CollapsedFaults(netlist);
  const auto reference = SerialFirstDetect(netlist, patterns, faults);

  for (const bool shortcuts : {true, false}) {
    for (const GridPoint& g : kGrid) {
      sim::CampaignRunner runner(netlist,
                                 {.block_width = g.width,
                                  .threads = g.threads,
                                  .structural_shortcuts = shortcuts});
      std::vector<std::uint64_t> first_detect(faults.size(), UINT64_MAX);
      sim::StoredPatternSource source(patterns);
      sim::FirstDetectSink sink(first_detect);
      const auto stats =
          runner.Run(source, sink, {.track = faults, .drop_detected = true});
      EXPECT_EQ(first_detect, reference)
          << "W=" << g.width << " threads=" << g.threads << " shortcuts="
          << shortcuts;
      std::uint64_t detected = 0;
      for (std::uint64_t fd : reference) detected += fd != UINT64_MAX;
      EXPECT_EQ(stats.dropped, detected);
      EXPECT_EQ(stats.survivors, faults.size() - detected);
    }
  }
}

TEST(CampaignRunner, NarrowWarmupDoesNotChangeResults) {
  const auto netlist = testing::MakeSmallRandom(11, 200);
  const bist::StumpsConfig config;
  const auto patterns = PrpgPatterns(netlist, config, 300);
  const auto faults = sim::CollapsedFaults(netlist);
  const auto reference = SerialFirstDetect(netlist, patterns, faults);

  sim::CampaignRunner runner(
      netlist,
      {.block_width = 4, .threads = 2, .narrow_warmup_patterns = 100});
  std::vector<std::uint64_t> first_detect(faults.size(), UINT64_MAX);
  sim::StoredPatternSource source(patterns);
  sim::FirstDetectSink sink(first_detect);
  const auto stats = runner.Run(
      source, sink,
      {.track = faults, .drop_detected = true, .warmup = true});
  EXPECT_EQ(first_detect, reference);
  EXPECT_LE(stats.warmup_patterns, std::uint64_t{100});
}

TEST(CampaignRunner, MaxPatternsAndSinkStopBoundTheRun) {
  const auto netlist = testing::MakeC17();
  const bist::StumpsConfig config;
  const auto patterns = PrpgPatterns(netlist, config, 200);

  sim::CampaignRunner runner(netlist, {.block_width = 2, .threads = 1});
  {
    sim::StoredPatternSource source(patterns);
    const auto stats = runner.Run(source, {.max_patterns = 70});
    EXPECT_EQ(stats.patterns, std::uint64_t{70});
  }
  {
    // A sink returning false after the first block stops the campaign.
    class StopSink final : public sim::CampaignSink {
     public:
      bool OnBlock(sim::CampaignBlock& block) override {
        ++blocks_;
        seen_ += block.Count();
        return false;
      }
      std::size_t blocks_ = 0, seen_ = 0;
    } stop_sink;
    sim::StoredPatternSource source(patterns);
    runner.Run(source, stop_sink);
    EXPECT_EQ(stop_sink.blocks_, std::size_t{1});
    EXPECT_EQ(stop_sink.seen_, std::size_t{2 * 64});
  }
}

TEST(CampaignRunner, CountDetectedFaultsGridInvariant) {
  const auto netlist = testing::MakeSmallRandom(5, 150);
  const bist::StumpsConfig config;
  const auto patterns = PrpgPatterns(netlist, config, 128);
  const auto faults = sim::CollapsedFaults(netlist);

  const std::size_t reference =
      sim::CountDetectedFaults(netlist, patterns, faults);
  for (const GridPoint& g : kGrid) {
    EXPECT_EQ(sim::ParallelCountDetectedFaults(netlist, patterns, faults,
                                               g.threads, g.width),
              reference)
        << "W=" << g.width << " threads=" << g.threads;
  }
}

TEST(CampaignConsumers, ProfileCurvesBitIdentical) {
  const auto netlist = testing::MakeSmallRandom(7, 200);

  auto generate = [&](std::size_t width, std::size_t threads,
                      std::uint64_t warmup, bool shortcuts) {
    bist::ProfileGeneratorConfig config;
    config.prp_counts = {100, 300};
    config.coverage_targets_percent = {100.0, 95.0};
    config.fill_seeds = {11, 11};
    config.threads = threads;
    config.block_width = width;
    config.narrow_warmup_patterns = warmup;
    config.structural_shortcuts = shortcuts;
    bist::ProfileGenerator generator(netlist, config);
    return generator.GenerateAll();
  };

  const auto reference = generate(1, 1, 0, false);
  ASSERT_EQ(reference.size(), 4u);
  for (const bool shortcuts : {true, false}) {
    for (const GridPoint& g : kGrid) {
      const auto profiles = generate(g.width, g.threads, 64, shortcuts);
      ASSERT_EQ(profiles.size(), reference.size());
      for (std::size_t i = 0; i < profiles.size(); ++i) {
        EXPECT_EQ(profiles[i].fault_coverage_percent,
                  reference[i].fault_coverage_percent)
            << "W=" << g.width << " threads=" << g.threads << " shortcuts="
            << shortcuts;
        EXPECT_EQ(profiles[i].num_deterministic_patterns,
                  reference[i].num_deterministic_patterns);
        EXPECT_EQ(profiles[i].data_bytes, reference[i].data_bytes);
        EXPECT_EQ(profiles[i].care_bits, reference[i].care_bits);
      }
    }
  }
}

TEST(CampaignConsumers, StumpsSignaturesBitIdentical) {
  const auto netlist = testing::MakeSmallRandom(9, 200);
  const auto faults = sim::CollapsedFaults(netlist);
  ASSERT_GE(faults.size(), 8u);

  auto run_session = [&](std::size_t width, std::size_t threads,
                         const StuckAtFault& fault) {
    bist::StumpsConfig config;
    config.sim_block_width = width;
    config.sim_threads = threads;
    bist::StumpsSession session(netlist, config);
    return session.Run(256, {}, fault);
  };

  const auto reference = run_session(1, 1, faults[3]);
  for (const GridPoint& g : kGrid) {
    const auto result = run_session(g.width, g.threads, faults[3]);
    EXPECT_EQ(result.window_signatures, reference.window_signatures)
        << "W=" << g.width << " threads=" << g.threads;
    ASSERT_EQ(result.fail_data.size(), reference.fail_data.size());
    for (std::size_t i = 0; i < result.fail_data.size(); ++i) {
      EXPECT_EQ(result.fail_data[i].window_index,
                reference.fail_data[i].window_index);
      EXPECT_EQ(result.fail_data[i].observed_signature,
                reference.fail_data[i].observed_signature);
    }
  }
}

TEST(CampaignConsumers, RunBatchMatchesSoloRuns) {
  const auto netlist = testing::MakeSmallRandom(13, 200);
  const auto all_faults = sim::CollapsedFaults(netlist);
  std::vector<StuckAtFault> faults;
  for (std::size_t i = 0; i < all_faults.size() && faults.size() < 12;
       i += 5) {
    faults.push_back(all_faults[i]);
  }

  for (const GridPoint& g : kGrid) {
    bist::StumpsConfig config;
    config.sim_block_width = g.width;
    config.sim_threads = g.threads;
    bist::StumpsSession session(netlist, config);
    const auto batch = session.RunBatch(256, {}, faults);
    ASSERT_EQ(batch.size(), faults.size());
    for (std::size_t i = 0; i < faults.size(); ++i) {
      const auto solo = session.Run(256, {}, faults[i]);
      EXPECT_EQ(batch[i].window_signatures, solo.window_signatures)
          << "fault " << i << " W=" << g.width << " threads=" << g.threads;
      EXPECT_EQ(batch[i].pass, solo.pass);
      EXPECT_EQ(batch[i].fail_data.size(), solo.fail_data.size());
    }
  }
}

TEST(CampaignConsumers, DictionaryRowsBitIdentical) {
  const auto netlist = testing::MakeSmallRandom(17, 150);
  const bist::StumpsConfig config;
  auto faults = sim::CollapsedFaults(netlist);
  faults.resize(std::min<std::size_t>(faults.size(), 60));

  const bist::FaultDictionary reference(netlist, config, 192, {}, faults, 1,
                                        1);
  // Fail data of a real faulty session, for ranking equality.
  bist::StumpsConfig session_config = config;
  bist::StumpsSession session(netlist, session_config);
  const auto observed = session.Run(192, {}, faults[1]);
  ASSERT_FALSE(observed.fail_data.empty());
  const auto reference_ranking =
      reference.Diagnose(observed.fail_data, 10);

  for (const GridPoint& g : kGrid) {
    const bist::FaultDictionary dict(netlist, config, 192, {}, faults,
                                     g.threads, g.width);
    ASSERT_EQ(dict.FaultCount(), reference.FaultCount());
    for (std::size_t f = 0; f < faults.size(); ++f) {
      const auto rows = dict.WindowsOf(f);
      const auto ref_rows = reference.WindowsOf(f);
      ASSERT_EQ(rows.size(), ref_rows.size());
      for (std::size_t w = 0; w < rows.size(); ++w) {
        EXPECT_EQ(rows[w], ref_rows[w])
            << "fault " << f << " W=" << g.width << " threads=" << g.threads;
      }
    }
    const auto ranking = dict.Diagnose(observed.fail_data, 10);
    ASSERT_EQ(ranking.size(), reference_ranking.size());
    for (std::size_t r = 0; r < ranking.size(); ++r) {
      EXPECT_EQ(ranking[r].fault, reference_ranking[r].fault);
      EXPECT_EQ(ranking[r].score, reference_ranking[r].score);
    }
  }
}

TEST(CampaignConsumers, SignatureDiagnosisBitIdentical) {
  const auto netlist = testing::MakeSmallRandom(21, 150);
  const bist::StumpsConfig config;
  auto faults = sim::CollapsedFaults(netlist);
  faults.resize(std::min<std::size_t>(faults.size(), 60));

  bist::StumpsConfig session_config = config;
  bist::StumpsSession session(netlist, session_config);
  const auto observed = session.Run(192, {}, faults[2]);
  ASSERT_FALSE(observed.fail_data.empty());

  const bist::SignatureDiagnosis reference(netlist, config, 192, {}, 1, 1);
  const auto reference_ranking =
      reference.Diagnose(observed.fail_data, faults, 10);
  ASSERT_FALSE(reference_ranking.empty());
  EXPECT_EQ(reference_ranking.front().fault, faults[2]);

  for (const GridPoint& g : kGrid) {
    const bist::SignatureDiagnosis diagnosis(netlist, config, 192, {},
                                             g.width, g.threads);
    // Two queries through the same instance: cached simulator state must not
    // leak between calls.
    for (int repeat = 0; repeat < 2; ++repeat) {
      const auto ranking =
          diagnosis.Diagnose(observed.fail_data, faults, 10);
      ASSERT_EQ(ranking.size(), reference_ranking.size());
      for (std::size_t r = 0; r < ranking.size(); ++r) {
        EXPECT_EQ(ranking[r].fault, reference_ranking[r].fault)
            << "rank " << r << " W=" << g.width << " threads=" << g.threads;
        EXPECT_EQ(ranking[r].score, reference_ranking[r].score);
      }
    }
  }
}

}  // namespace
}  // namespace bistdse
