#include <gtest/gtest.h>

#include "casestudy/casestudy.hpp"
#include "dse/decoder.hpp"
#include "dse/partial_networking.hpp"
#include "dse/session_plan.hpp"

namespace bistdse::dse {
namespace {

casestudy::CaseStudy SmallCaseStudy() {
  auto profiles = casestudy::PaperTableI();
  profiles.resize(4);
  return casestudy::BuildCaseStudy(profiles, 42);
}

model::Implementation Forced(const casestudy::CaseStudy& cs,
                             SatDecoder& decoder, bool local) {
  moea::Genotype g;
  g.priorities.assign(decoder.GenotypeSize(), 0.5);
  g.phases.assign(decoder.GenotypeSize(), 0);
  const auto mappings = cs.spec.Mappings();
  for (const auto& [ecu, programs] : cs.augmentation.programs_by_ecu) {
    const auto& prog = programs[3];
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
  return *decoder.Decode(g);
}

TEST(SessionPlan, PhasesAreContiguousAndConsistentWithEq5) {
  auto cs = SmallCaseStudy();
  SatDecoder decoder(cs.spec, cs.augmentation);
  const auto impl = Forced(cs, decoder, /*local=*/false);
  const auto plans = PlanSessions(cs.spec, cs.augmentation, impl);
  ASSERT_FALSE(plans.empty());

  const auto pn = AnalyzePartialNetworking(cs.spec, cs.augmentation, impl);
  ASSERT_EQ(plans.size(), pn.sessions.size());

  for (std::size_t i = 0; i < plans.size(); ++i) {
    const auto& plan = plans[i];
    // Phases tile [0, total] without gaps.
    double t = 0.0;
    for (const auto& phase : plan.phases) {
      EXPECT_DOUBLE_EQ(phase.start_ms, t);
      t += phase.duration_ms;
    }
    EXPECT_DOUBLE_EQ(plan.total_ms, t);
    // Download + test phases equal the Eq. 5 session time of the same ECU.
    EXPECT_FALSE(plan.patterns_local);
    EXPECT_NEAR(plan.phases[0].duration_ms + plan.phases[1].duration_ms,
                pn.sessions[i].session_ms, 1e-9);
    EXPECT_GT(plan.download_frames, 0u);
    EXPECT_GT(plan.fail_data_frames, 0u);
  }
}

TEST(SessionPlan, LocalStorageSkipsDownload) {
  auto cs = SmallCaseStudy();
  SatDecoder decoder(cs.spec, cs.augmentation);
  const auto impl = Forced(cs, decoder, /*local=*/true);
  const auto plans = PlanSessions(cs.spec, cs.augmentation, impl);
  ASSERT_FALSE(plans.empty());
  for (const auto& plan : plans) {
    EXPECT_TRUE(plan.patterns_local);
    EXPECT_EQ(plan.download_frames, 0u);
    EXPECT_EQ(plan.phases.front().name.find("download"), std::string::npos);
    // No download phase: the remainder is the 1.71 ms session plus the
    // fixed 638 B fail-data upload over the ECU's (possibly slow) slots.
    ASSERT_EQ(plan.phases.size(), 3u);
    EXPECT_DOUBLE_EQ(plan.phases[0].duration_ms, 1.71);
    EXPECT_LT(plan.total_ms, 1e5);
  }
}

TEST(SessionPlan, FormatNamesEcuAndPhases) {
  auto cs = SmallCaseStudy();
  SatDecoder decoder(cs.spec, cs.augmentation);
  const auto impl = Forced(cs, decoder, false);
  const auto plans = PlanSessions(cs.spec, cs.augmentation, impl);
  ASSERT_FALSE(plans.empty());
  const std::string text = FormatSessionPlan(cs.spec, plans.front());
  EXPECT_NE(text.find("profile 4"), std::string::npos);
  EXPECT_NE(text.find("pattern download"), std::string::npos);
  EXPECT_NE(text.find("state restore"), std::string::npos);
}

}  // namespace
}  // namespace bistdse::dse
