// End-to-end integration: the complete flow of the paper on a synthetic CUT.
//
//   synthetic circuit -> fault universe -> mixed-mode BIST profiles
//   (random fault sim + PODEM + reseeding) -> E/E case study augmented with
//   those profiles -> SAT-decoding exploration -> feasible Pareto front,
//   schedulable buses, non-intrusive transfers, diagnosable fail data.
#include <gtest/gtest.h>

#include <algorithm>

#include "bist/diagnosis.hpp"
#include "bist/profile_generator.hpp"
#include "bus_engine.hpp"
#include "can/mirroring.hpp"
#include "casestudy/casestudy.hpp"
#include "dse/bus_load.hpp"
#include "dse/parallel.hpp"
#include "dse/partial_networking.hpp"

namespace bistdse {
namespace {

class EndToEnd : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // Small CUT so the whole pipeline stays in CI budget.
    netlist::RandomCircuitSpec spec;
    spec.num_inputs = 16;
    spec.num_outputs = 16;
    spec.num_flops = 120;
    spec.num_gates = 900;
    spec.num_hard_blocks = 4;
    spec.hard_block_width = 8;
    spec.seed = 5;
    cut_ = new netlist::Netlist(netlist::GenerateRandomCircuit(spec));

    bist::ProfileGeneratorConfig config;
    config.stumps = casestudy::PaperStumpsConfig();
    config.prp_counts = {256, 1024};
    config.coverage_targets_percent = {100.0, 95.0};
    config.fill_seeds = {3, 3};
    // Present byte sizes at the paper CUT's magnitude.
    config.byte_scale = 30.0;
    bist::ProfileGenerator generator(*cut_, config);
    profiles_ = new std::vector<bist::BistProfile>(generator.GenerateAll());
  }
  static void TearDownTestSuite() {
    delete cut_;
    delete profiles_;
    cut_ = nullptr;
    profiles_ = nullptr;
  }

  static netlist::Netlist* cut_;
  static std::vector<bist::BistProfile>* profiles_;
};

netlist::Netlist* EndToEnd::cut_ = nullptr;
std::vector<bist::BistProfile>* EndToEnd::profiles_ = nullptr;

// Checks that mirroring the functional frames of every ECU that ships test
// data to remote storage leaves every other message's worst-case response
// time on the ECU's bus unchanged. Returns the number of ECUs checked.
std::size_t ExpectMirroredTransfersNonIntrusive(
    const casestudy::CaseStudy& cs, const model::Implementation& impl,
    const dse::RoutedBusNetwork& routed) {
  const auto& app = cs.spec.Application();
  const auto& arch = cs.spec.Architecture();
  const auto bound_at = impl.BoundResources(cs.spec);
  std::size_t checked = 0;
  for (const auto& [ecu, programs] : cs.augmentation.programs_by_ecu) {
    const bool remote = std::any_of(
        programs.begin(), programs.end(), [&](const model::BistProgram& p) {
          const auto data_at = bound_at[p.data_task];
          return bound_at[p.test_task] != model::kInvalidId &&
                 data_at != model::kInvalidId && data_at != ecu;
        });
    if (!remote) continue;
    for (model::ResourceId n : arch.Neighbors(ecu)) {
      const auto bus = routed.buses.find(n);
      if (bus == routed.buses.end()) continue;
      std::vector<can::CanMessage> ecu_tx;
      for (model::MessageId c : routed.per_bus.at(n)) {
        if (bound_at[app.GetMessage(c).sender] != ecu) continue;
        const can::CanId id = routed.id_of.at({n, c});
        for (const auto& m : bus->second.Messages()) {
          if (m.id == id) ecu_tx.push_back(m);
        }
      }
      if (ecu_tx.empty()) continue;
      const auto verdict = can::CheckNonIntrusiveness(
          bus->second, ecu_tx, can::MakeMirroredMessages(ecu_tx, 1));
      EXPECT_TRUE(verdict.non_intrusive) << bus->second.Name();
      ++checked;
    }
  }
  return checked;
}

TEST_F(EndToEnd, GeneratedProfilesAreWellFormed) {
  ASSERT_EQ(profiles_->size(), 4u);
  for (const auto& p : *profiles_) {
    EXPECT_GT(p.fault_coverage_percent, 80.0);
    EXPECT_GT(p.runtime_ms, 0.0);
    EXPECT_GT(p.data_bytes, 0u);
  }
  // More PRPs => longer runtime; max target => more data than 95 % target.
  EXPECT_LT((*profiles_)[0].runtime_ms, (*profiles_)[2].runtime_ms);
  EXPECT_GE((*profiles_)[0].data_bytes, (*profiles_)[1].data_bytes);
}

TEST_F(EndToEnd, ExplorationOnGeneratedProfiles) {
  auto cs = casestudy::BuildCaseStudy(*profiles_, 42);
  dse::ExplorationConfig config;
  config.evaluations = 800;
  config.population_size = 24;
  config.seed = 4;
  config.validate_each_decode = true;  // every decode checked against Eqs.
  const auto result = dse::ExploreParallel(cs.spec, cs.augmentation, config, 1);

  ASSERT_GT(result.pareto.size(), 2u);
  EXPECT_EQ(result.decoder_stats.validation_failures, 0u);

  // Every front implementation: feasible, schedulable, non-intrusive.
  std::size_t mirrored_checked = 0;
  for (const auto& entry : result.pareto) {
    const auto violations =
        model::ValidateImplementation(cs.spec, entry.implementation);
    EXPECT_TRUE(violations.empty())
        << (violations.empty() ? "" : violations[0]);
    const auto routed =
        dse::BuildRoutedBusNetwork(cs.spec, entry.implementation);
    for (const auto& [id, bus] : routed.buses) {
      EXPECT_TRUE(testing::Schedulable(bus)) << bus.Name();
    }
    mirrored_checked +=
        ExpectMirroredTransfersNonIntrusive(cs, entry.implementation, routed);
    // Eq. 5 consistency with the per-ECU analysis.
    const auto pn = dse::AnalyzePartialNetworking(cs.spec, cs.augmentation,
                                                  entry.implementation);
    EXPECT_DOUBLE_EQ(pn.max_session_ms, entry.objectives.shutoff_time_ms);
  }
  // The front ships test data to remote storage somewhere, so the mirroring
  // check above is not vacuous.
  EXPECT_GT(mirrored_checked, 0u);
}

TEST_F(EndToEnd, SessionFailDataIsDiagnosable) {
  // Close the loop on the CUT itself: a faulty chip running the profile's
  // BIST session produces fail data from which diagnosis recovers the
  // defect.
  bist::StumpsConfig config = casestudy::PaperStumpsConfig();
  config.signature_window = 16;
  bist::StumpsSession session(*cut_, config);
  const auto faults = sim::CollapsedFaults(*cut_);
  const auto& injected = faults[faults.size() / 7];

  const auto result = session.Run(512, {}, injected);
  if (result.fail_data.empty()) GTEST_SKIP() << "fault escapes 512 patterns";

  bist::SignatureDiagnosis diagnosis(*cut_, config, 512, {});
  const auto ranked = diagnosis.Diagnose(result.fail_data, faults, 5);
  bool hit = false;
  for (const auto& c : ranked) hit |= c.fault == injected;
  EXPECT_TRUE(hit);
}

}  // namespace
}  // namespace bistdse
