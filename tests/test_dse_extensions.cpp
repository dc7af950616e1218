#include <gtest/gtest.h>

#include <sstream>

#include "casestudy/casestudy.hpp"
#include "dse/decoder.hpp"
#include "dse/parallel.hpp"
#include "dse/partial_networking.hpp"
#include "dse/report.hpp"

namespace bistdse::dse {
namespace {

casestudy::CaseStudy SmallCaseStudy() {
  auto profiles = casestudy::PaperTableI();
  profiles.resize(4);
  return casestudy::BuildCaseStudy(profiles, 42);
}

/// Decodes with every ECU running `profile_index`, patterns local or remote.
model::Implementation Forced(const casestudy::CaseStudy& cs,
                             SatDecoder& decoder, std::uint32_t profile_index,
                             bool local) {
  moea::Genotype g;
  g.priorities.assign(decoder.GenotypeSize(), 0.5);
  g.phases.assign(decoder.GenotypeSize(), 0);
  const auto mappings = cs.spec.Mappings();
  for (const auto& [ecu, programs] : cs.augmentation.programs_by_ecu) {
    const auto& prog = programs[profile_index];
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
  auto impl = decoder.Decode(g);
  EXPECT_TRUE(impl.has_value());
  return *impl;
}

TEST(PartialNetworking, LocalStorageSessionsAreMilliseconds) {
  auto cs = SmallCaseStudy();
  SatDecoder decoder(cs.spec, cs.augmentation);
  const auto impl = Forced(cs, decoder, 3, /*local=*/true);
  const auto report =
      AnalyzePartialNetworking(cs.spec, cs.augmentation, impl);
  ASSERT_FALSE(report.sessions.empty());
  for (const auto& s : report.sessions) {
    EXPECT_TRUE(s.patterns_local);
    EXPECT_EQ(s.transfer_ms, 0.0);
    EXPECT_LT(s.session_ms, 10.0);  // profile 4: l = 1.71 ms
  }
  EXPECT_TRUE(report.AllDeadlinesMet());  // unconstrained by default
}

TEST(PartialNetworking, RemoteStorageAddsTransfer) {
  auto cs = SmallCaseStudy();
  SatDecoder decoder(cs.spec, cs.augmentation);
  const auto impl = Forced(cs, decoder, 3, /*local=*/false);
  const auto report =
      AnalyzePartialNetworking(cs.spec, cs.augmentation, impl);
  ASSERT_FALSE(report.sessions.empty());
  for (const auto& s : report.sessions) {
    EXPECT_FALSE(s.patterns_local);
    EXPECT_GT(s.transfer_ms, 0.0);
    EXPECT_GT(s.session_ms, s.transfer_ms * 0.99);
  }
  // The max session equals the Eq. 5 shut-off objective.
  const auto obj = EvaluateImplementation(cs.spec, cs.augmentation, impl);
  EXPECT_DOUBLE_EQ(report.max_session_ms, obj.shutoff_time_ms);
}

TEST(PartialNetworking, DeadlinesFlagSlowEcus) {
  auto cs = SmallCaseStudy();
  SatDecoder decoder(cs.spec, cs.augmentation);
  const auto impl = Forced(cs, decoder, 3, /*local=*/false);
  // A 10 ms default deadline is met by no remote-storage session.
  const auto strict = AnalyzePartialNetworking(cs.spec, cs.augmentation, impl,
                                               {}, 10.0);
  EXPECT_EQ(strict.deadline_violations.size(), strict.sessions.size());
  // Exempt one ECU with a generous per-ECU deadline.
  std::map<model::ResourceId, double> deadlines;
  deadlines[strict.sessions.front().ecu] = 1e12;
  const auto mixed = AnalyzePartialNetworking(cs.spec, cs.augmentation, impl,
                                              deadlines, 10.0);
  EXPECT_EQ(mixed.deadline_violations.size(), mixed.sessions.size() - 1);
}

TEST(Objectives2, CanFdCutsTransferTimeByPayloadRatio) {
  auto cs = SmallCaseStudy();
  SatDecoder decoder(cs.spec, cs.augmentation);
  const auto impl = Forced(cs, decoder, 3, /*local=*/false);

  const auto classic = EvaluateImplementation(cs.spec, cs.augmentation, impl);
  EvaluationOptions fd;
  fd.use_can_fd = true;
  const auto with_fd =
      EvaluateImplementation(cs.spec, cs.augmentation, impl, fd);

  // The FD download fills every slot with 64 bytes instead of the message's
  // classic payload (1-8 bytes): shut-off shrinks by roughly the payload
  // ratio of the bottleneck ECU.
  EXPECT_LT(with_fd.shutoff_time_ms, classic.shutoff_time_ms / 4);
  EXPECT_GT(with_fd.shutoff_time_ms, 0.0);
  // Cost and quality are unaffected by the transfer technology.
  EXPECT_DOUBLE_EQ(with_fd.monetary_cost, classic.monetary_cost);
  EXPECT_DOUBLE_EQ(with_fd.test_quality_percent,
                   classic.test_quality_percent);
}

TEST(Exploration2, Spea2PathProducesValidFront) {
  auto cs = SmallCaseStudy();
  ExplorationConfig cfg;
  cfg.algorithm = MoeaAlgorithm::Spea2;
  cfg.evaluations = 400;
  cfg.population_size = 20;
  cfg.seed = 6;
  cfg.validate_each_decode = true;
  const auto result = ExploreParallel(cs.spec, cs.augmentation, cfg, 1);
  EXPECT_EQ(result.evaluations, 400u);
  ASSERT_GT(result.pareto.size(), 2u);
  // Corner seeding works on the SPEA2 path too: quality-0 anchor present.
  double min_q = 1e18;
  for (const auto& e : result.pareto) {
    min_q = std::min(min_q, e.objectives.test_quality_percent);
  }
  EXPECT_EQ(min_q, 0.0);
  for (std::size_t i = 0; i < result.pareto.size(); ++i) {
    for (std::size_t j = 0; j < result.pareto.size(); ++j) {
      if (i != j) {
        EXPECT_FALSE(moea::Dominates(
            result.pareto[i].objectives.ToMinimizationVector(),
            result.pareto[j].objectives.ToMinimizationVector()));
      }
    }
  }
}

TEST(Report, CsvHasHeaderAndRows) {
  auto cs = SmallCaseStudy();
  ExplorationConfig cfg;
  cfg.evaluations = 150;
  cfg.population_size = 16;
  cfg.seed = 2;
  const auto result = ExploreParallel(cs.spec, cs.augmentation, cfg, 1);
  std::ostringstream csv;
  WriteFrontCsv(result, csv);
  std::istringstream ss(csv.str());
  std::string header;
  std::getline(ss, header);
  EXPECT_NE(header.find("cost,test_quality_percent"), std::string::npos);
  std::size_t rows = 0;
  std::string line;
  while (std::getline(ss, line)) ++rows;
  EXPECT_EQ(rows, result.pareto.size());
}

TEST(Report, DescribeImplementationNamesEcusAndRoutes) {
  auto cs = SmallCaseStudy();
  SatDecoder decoder(cs.spec, cs.augmentation);
  const auto impl = Forced(cs, decoder, 0, /*local=*/false);
  ExplorationEntry entry{EvaluateImplementation(cs.spec, cs.augmentation, impl),
                         impl};
  const std::string text =
      DescribeImplementation(cs.spec, cs.augmentation, entry);
  EXPECT_NE(text.find("profile 1"), std::string::npos);
  EXPECT_NE(text.find("at gateway"), std::string::npos);
  EXPECT_NE(text.find("c^D route: gateway"), std::string::npos);
  EXPECT_NE(text.find("allocation:"), std::string::npos);
}

}  // namespace
}  // namespace bistdse::dse
