#include <gtest/gtest.h>

#include "bist/diagnosis.hpp"
#include "sim/fault.hpp"
#include "test_helpers.hpp"

namespace bistdse::bist {
namespace {

using sim::CollapsedFaults;
using sim::StuckAtFault;

StumpsConfig DiagConfig() {
  StumpsConfig cfg;
  cfg.signature_window = 8;  // fine-grained windows: more diagnostic info
  cfg.prpg_seed = 0x1234;
  return cfg;
}

TEST(Diagnosis, InjectedFaultRanksFirst) {
  auto nl = bistdse::testing::MakeSmallRandom(61, 250);
  const auto cfg = DiagConfig();
  StumpsSession session(nl, cfg);
  const auto faults = CollapsedFaults(nl);

  SignatureDiagnosis diag(nl, cfg, 512, {});
  std::size_t attempted = 0, top1 = 0, top5 = 0;
  for (std::size_t fi = 0; fi < faults.size(); fi += 97) {
    const auto result = session.Run(512, {}, faults[fi]);
    if (result.fail_data.empty()) continue;  // not detected by this session
    ++attempted;
    const auto ranked = diag.Diagnose(result.fail_data, faults, 5);
    ASSERT_FALSE(ranked.empty());
    // The true fault must score a perfect match (prediction == observation,
    // no aliasing expected at 32-bit signatures).
    bool in_top1 = ranked[0].fault == faults[fi] ||
                   (ranked.size() > 1 && ranked[0].score == ranked[1].score);
    bool in_top5 = false;
    for (const auto& c : ranked) in_top5 |= c.fault == faults[fi];
    top1 += in_top1;
    top5 += in_top5;
  }
  ASSERT_GT(attempted, 3u);
  // Equivalent faults can tie, but the injected fault must virtually always
  // appear among the top candidates.
  EXPECT_GE(top5 * 10, attempted * 8) << top5 << "/" << attempted;
  EXPECT_GE(top1 * 10, attempted * 7);
}

TEST(Diagnosis, PerfectScoreForTrueFault) {
  auto nl = bistdse::testing::MakeSmallRandom(63, 200);
  const auto cfg = DiagConfig();
  StumpsSession session(nl, cfg);
  const auto faults = CollapsedFaults(nl);
  const StuckAtFault fault = faults[3];

  const auto result = session.Run(256, {}, fault);
  if (result.fail_data.empty()) GTEST_SKIP() << "fault escapes this session";

  SignatureDiagnosis diag(nl, cfg, 256, {});
  const auto ranked = diag.Diagnose(result.fail_data, {&fault, 1}, 1);
  ASSERT_EQ(ranked.size(), 1u);
  // Perfect window-set match (1.0) plus perfect signature reproduction (1.0).
  EXPECT_DOUBLE_EQ(ranked[0].score, 2.0);
}

TEST(Diagnosis, NoFailDataGivesZeroScores) {
  auto nl = bistdse::testing::MakeSmallRandom(65, 150);
  const auto cfg = DiagConfig();
  SignatureDiagnosis diag(nl, cfg, 64, {});
  const auto faults = CollapsedFaults(nl);
  const auto ranked = diag.Diagnose({}, faults, 3);
  ASSERT_EQ(ranked.size(), 3u);
  for (const auto& c : ranked) {
    EXPECT_EQ(c.score, 0.0);
  }
}

TEST(Diagnosis, OutOfRangeWindowsCountTowardTheUnionOnly) {
  // 64 patterns in windows of 32: two windows, one bitmask word. Window 63
  // is inside the word but past the session; 100000 is past the word too.
  // Both are failing windows no candidate predicts: they count toward the
  // union (once per distinct index) and stage 2 replays them with no
  // patterns, so either index ranks identically.
  auto nl = bistdse::testing::MakeSmallRandom(67, 150);
  StumpsConfig cfg;
  cfg.signature_window = 32;
  StumpsSession session(nl, cfg);
  const auto faults = CollapsedFaults(nl);
  std::vector<FailDatum> fail_data;
  for (std::size_t fi = 0; fi < faults.size() && fail_data.empty(); ++fi) {
    fail_data = session.Run(64, {}, faults[fi]).fail_data;
  }
  ASSERT_FALSE(fail_data.empty());

  const SignatureDiagnosis diag(nl, cfg, 64, {});
  ASSERT_EQ(diag.WindowCount(), 2u);
  const auto with_window = [&](std::uint32_t w) {
    auto data = fail_data;
    data.insert(data.begin(), {{w, 0x5a5a, 0}, {w, 0x1234, 0}});
    return diag.Diagnose(data, faults, faults.size());
  };
  const auto in_row = with_window(63);
  const auto past_row = with_window(100000);
  ASSERT_EQ(in_row.size(), faults.size());
  ASSERT_EQ(past_row.size(), in_row.size());
  for (std::size_t r = 0; r < in_row.size(); ++r) {
    EXPECT_EQ(past_row[r].fault, in_row[r].fault) << "rank " << r;
    EXPECT_EQ(past_row[r].score, in_row[r].score) << "rank " << r;
  }
  // The unpredicted window is evidence against every candidate.
  EXPECT_LT(past_row.front().score,
            diag.Diagnose(fail_data, faults, 1).front().score);
}

TEST(Diagnosis, WindowCount) {
  auto nl = bistdse::testing::MakeSmallRandom(67, 100);
  StumpsConfig cfg = DiagConfig();
  SignatureDiagnosis diag(nl, cfg, 20, {});
  EXPECT_EQ(diag.WindowCount(), 3u);  // ceil(20/8)
}

}  // namespace
}  // namespace bistdse::bist
