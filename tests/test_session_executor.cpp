// Acceptance tests of the frame-accurate session executor: simulated
// transfer times must land on the analytical Eq.-1 predictions, observed
// responses must respect the analytical WCRTs, and sessions must survive
// injected frame loss via transport retries — with every retransmission
// recorded in the event trace.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "casestudy/casestudy.hpp"
#include "dse/decoder.hpp"
#include "dse/objectives.hpp"
#include "dse/session_plan.hpp"
#include "execution_hash.hpp"
#include "model/implementation.hpp"
#include "net/campaign.hpp"
#include "net/session_executor.hpp"
#include "trace_count.hpp"

namespace bistdse::net {
namespace {

// Case study with Table-I profiles 1-4, pattern data scaled down so a
// 15-ECU sweep of full downloads stays test-suite-fast. The scale only
// shortens the simulated transfer; the executor-vs-Eq.-1 comparison is
// scale-free.
casestudy::CaseStudy ScaledCaseStudy() {
  return casestudy::BuildCaseStudy(casestudy::ScaledTableI(1.0 / 256, 4), 42);
}

/// Forces a deterministic implementation: every ECU selects profile 4 and
/// stores its patterns locally or remotely (on the gateway) as requested.
model::Implementation Forced(const casestudy::CaseStudy& cs,
                             dse::SatDecoder& decoder, bool local) {
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

// Acceptance: for every case-study ECU's selected BIST profile, the
// simulated mirrored download matches the analytical q(b^T) within 5 % at
// zero loss, never undershoots it, and every observed response time stays
// below the analytical WCRT.
TEST(SessionExecutor, ZeroLossDownloadMatchesEq1WithinFivePercent) {
  auto cs = ScaledCaseStudy();
  dse::SatDecoder decoder(cs.spec, cs.augmentation);
  const auto impl = Forced(cs, decoder, /*local=*/false);

  SessionExecutor executor(cs.spec, cs.augmentation);
  const auto report = executor.Execute(impl);
  ASSERT_EQ(report.sessions.size(), cs.augmentation.programs_by_ecu.size());
  EXPECT_TRUE(report.all_completed);
  EXPECT_TRUE(report.all_wcrt_dominated);
  EXPECT_EQ(report.total_retransmissions, 0u);
  EXPECT_EQ(report.total_frames_dropped, 0u);

  for (const auto& s : report.sessions) {
    ASSERT_TRUE(s.executed) << s.failure;
    ASSERT_TRUE(s.completed) << s.failure;
    EXPECT_FALSE(s.plan.patterns_local);
    ASSERT_GT(s.analytical_download_ms, 0.0);
    // Never below the sustained Eq.-1 rate...
    EXPECT_GE(s.simulated_download_ms, s.analytical_download_ms - 1e-9);
    // ...and within 5 % above it (slot discretization + flow control).
    EXPECT_LE(s.simulated_download_ms, 1.05 * s.analytical_download_ms)
        << FormatSessionExecution(cs.spec, s);
    EXPECT_GT(s.download.frames_sent, 0u);
    EXPECT_TRUE(s.wcrt_dominated) << FormatSessionExecution(cs.spec, s);
    ASSERT_FALSE(s.wcrt.empty());
    // Both mirrored carriers and untouched functional slots were observed.
    bool saw_mirrored = false, saw_functional = false;
    for (const auto& w : s.wcrt) {
      (w.mirrored ? saw_mirrored : saw_functional) = true;
      if (std::isfinite(w.analytical_ms)) {
        EXPECT_LE(w.observed_ms, w.analytical_ms + 1e-9)
            << w.bus_name << " id " << w.id;
      }
    }
    EXPECT_TRUE(saw_mirrored);
    EXPECT_TRUE(saw_functional);
  }
  EXPECT_LE(report.max_download_rel_error, 0.05);
}

// Acceptance: with 1 % injected frame loss every session still completes via
// transport retries, and the event trace records each retransmission.
TEST(SessionExecutor, OnePercentFrameLossCompletesViaTracedRetries) {
  auto cs = ScaledCaseStudy();
  dse::SatDecoder decoder(cs.spec, cs.augmentation);
  const auto impl = Forced(cs, decoder, /*local=*/false);

  SessionExecutorOptions options;
  options.faults.drop_rate = 0.01;
  options.faults.seed = 7;
  SessionExecutor executor(cs.spec, cs.augmentation, options);
  EventTrace trace;
  const auto report = executor.Execute(impl, &trace);

  EXPECT_TRUE(report.all_completed);
  EXPECT_GT(report.total_retransmissions, 0u);
  EXPECT_GT(report.total_frames_dropped, 0u);
  for (const auto& s : report.sessions) {
    EXPECT_TRUE(s.completed) << s.failure;
    // Loss delays the transfer, it never accelerates it.
    EXPECT_GE(s.simulated_download_ms, s.analytical_download_ms - 1e-9);
  }

  // One trace event per retransmission, each tied to a transport transfer.
  EXPECT_EQ(testing::CountKind(trace, TraceEventKind::Retransmission),
            report.total_retransmissions);
  for (const auto& e : trace.Events()) {
    if (e.kind == TraceEventKind::Retransmission) {
      EXPECT_NE(e.transfer, 0u);
      EXPECT_NE(e.note.find("retry"), std::string::npos);
    }
  }
  // Dropped transport frames are traced even without frame-level tracing.
  EXPECT_GE(testing::CountKind(trace, TraceEventKind::FrameDropped), 1u);
  // Phase boundaries and transfer lifecycles are present.
  EXPECT_EQ(testing::CountKind(trace, TraceEventKind::PhaseStart),
            testing::CountKind(trace, TraceEventKind::PhaseEnd));
  EXPECT_EQ(testing::CountKind(trace, TraceEventKind::TransferCompleted),
            2 * report.sessions.size());  // download + upload per session

  // JSONL export: one line per event, kinds spelled out.
  std::ostringstream jsonl;
  trace.WriteJsonl(jsonl);
  const std::string text = jsonl.str();
  EXPECT_EQ(static_cast<std::size_t>(
                std::count(text.begin(), text.end(), '\n')),
            trace.Events().size());
  EXPECT_NE(text.find("\"kind\":\"retransmission\""), std::string::npos);
  EXPECT_NE(text.find("\"kind\":\"frame_dropped\""), std::string::npos);
}

// Determinism: identical options reproduce the execution bit-for-bit.
TEST(SessionExecutor, LossyExecutionIsDeterministic) {
  auto cs = ScaledCaseStudy();
  dse::SatDecoder decoder(cs.spec, cs.augmentation);
  const auto impl = Forced(cs, decoder, /*local=*/false);

  SessionExecutorOptions options;
  options.faults.drop_rate = 0.01;
  SessionExecutor executor(cs.spec, cs.augmentation, options);
  const auto a = executor.Execute(impl);
  const auto b = executor.Execute(impl);
  ASSERT_EQ(a.sessions.size(), b.sessions.size());
  EXPECT_EQ(a.total_retransmissions, b.total_retransmissions);
  EXPECT_EQ(a.total_frames_dropped, b.total_frames_dropped);
  for (std::size_t i = 0; i < a.sessions.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.sessions[i].simulated_total_ms,
                     b.sessions[i].simulated_total_ms);
    EXPECT_DOUBLE_EQ(a.sessions[i].simulated_download_ms,
                     b.sessions[i].simulated_download_ms);
  }
}

// Local pattern storage: no download phase, but the fail-data upload still
// rides the mirrored slots and the session completes.
TEST(SessionExecutor, LocalStorageSkipsDownload) {
  auto cs = ScaledCaseStudy();
  dse::SatDecoder decoder(cs.spec, cs.augmentation);
  const auto impl = Forced(cs, decoder, /*local=*/true);

  SessionExecutor executor(cs.spec, cs.augmentation);
  const auto report = executor.Execute(impl);
  EXPECT_TRUE(report.all_completed);
  EXPECT_DOUBLE_EQ(report.max_download_rel_error, 0.0);
  for (const auto& s : report.sessions) {
    EXPECT_TRUE(s.plan.patterns_local);
    EXPECT_EQ(s.download.frames_sent, 0u);
    EXPECT_GT(s.upload.frames_sent, 0u);
    // The upload starts mid-stream of the carrier schedule (after the BIST
    // phase), so it can land up to one slot period on either side of q.
    EXPECT_GE(s.simulated_upload_ms, 0.95 * s.analytical_upload_ms);
    EXPECT_LE(s.simulated_upload_ms, 1.05 * s.analytical_upload_ms);
  }
}

// -- single-ECU network with the full-size Table-I profile 4 ----------------

struct SingleEcuSystem {
  model::Specification spec;
  model::BistAugmentation augmentation;
  model::Implementation impl;
  model::ResourceId ecu, gateway, bus;

  /// `tx_payload` = 0 builds an ECU that only receives — the
  /// no-mirrored-bandwidth case.
  explicit SingleEcuSystem(std::uint32_t tx_payload, double tx_period_ms = 1.0,
                           std::uint64_t pattern_bytes = 455061) {
    using namespace model;
    auto& arch = spec.Architecture();
    ecu = arch.AddResource({"ecu", ResourceKind::Ecu, 10.0, 0.001, 0});
    gateway = arch.AddResource({"gw", ResourceKind::Gateway, 20.0, 0.0005, 0});
    bus = arch.AddResource({"can0", ResourceKind::Bus, 3.0, 0, 500e3});
    arch.AddLink(ecu, bus);
    arch.AddLink(gateway, bus);

    auto& app = spec.Application();
    const TaskId t_ecu =
        app.AddTask({.name = "ecu_app", .kind = TaskKind::Functional});
    const TaskId t_gw =
        app.AddTask({.name = "gw_app", .kind = TaskKind::Functional});
    Message m;
    m.period_ms = tx_period_ms;
    if (tx_payload > 0) {
      m.name = "ecu_tx";
      m.sender = t_ecu;
      m.receivers = {t_gw};
      m.payload_bytes = tx_payload;
    } else {
      m.name = "gw_tx";  // ECU is a pure receiver: nothing to mirror
      m.sender = t_gw;
      m.receivers = {t_ecu};
      m.payload_bytes = 8;
    }
    app.AddMessage(m);
    spec.AddMapping(t_ecu, ecu);
    spec.AddMapping(t_gw, gateway);

    bist::BistProfile profile;  // Table I, profile 4
    profile.profile_number = 4;
    profile.num_random_patterns = 500;
    profile.fault_coverage_percent = 95.73;
    profile.runtime_ms = 1.71;
    profile.data_bytes = pattern_bytes;
    augmentation = AugmentWithBist(spec, {{ecu, {profile}}});

    // Bind everything; pattern memory goes to the gateway (remote storage).
    const auto& prog = augmentation.programs_by_ecu.at(ecu)[0];
    for (std::size_t i = 0; i < spec.Mappings().size(); ++i) {
      const auto& opt = spec.Mappings()[i];
      if (opt.task == prog.data_task && opt.resource != gateway) continue;
      impl.binding.push_back(i);
    }
    if (!CompleteRoutingAndAllocation(spec, RouteTable(spec.Architecture()),
                                      impl)) {
      throw std::logic_error("single-ECU system must route");
    }
  }
};

TEST(SessionExecutor, FullSizeProfileMatchesEq1) {
  SingleEcuSystem sys(/*tx_payload=*/8);
  SessionExecutor executor(sys.spec, sys.augmentation);
  const auto report = executor.Execute(sys.impl);
  ASSERT_EQ(report.sessions.size(), 1u);
  const auto& s = report.sessions.front();
  ASSERT_TRUE(s.completed) << s.failure;

  // 455061 B over a mirrored 8 B / 1 ms slot: q = 56882.625 ms (Eq. 1).
  EXPECT_NEAR(s.analytical_download_ms, 455061.0 / 8.0, 1e-6);
  EXPECT_GE(s.simulated_download_ms, s.analytical_download_ms - 1e-9);
  EXPECT_LE(s.simulated_download_ms, 1.05 * s.analytical_download_ms);
  EXPECT_TRUE(s.wcrt_dominated);
  // The whole session: download + 1.71 ms BIST + upload + restore.
  EXPECT_GT(s.simulated_total_ms,
            s.simulated_download_ms + 1.71 + s.simulated_upload_ms);
}

// Satellite: an ECU without functional TX messages has no mirrored
// bandwidth. The +inf of Eq. 1 must surface as an explicit rejection in the
// plan, the objectives, and the executor — not as NaN phases or a UB cast.
TEST(SessionExecutor, NoMirroredBandwidthIsExplicitlyRejected) {
  SingleEcuSystem sys(/*tx_payload=*/0);

  const auto plans =
      dse::PlanSessions(sys.spec, sys.augmentation, sys.impl);
  ASSERT_EQ(plans.size(), 1u);
  EXPECT_FALSE(plans.front().feasible);
  EXPECT_TRUE(std::isinf(plans.front().total_ms));
  EXPECT_EQ(plans.front().download_frames, 0u);
  const std::string text = dse::FormatSessionPlan(sys.spec, plans.front());
  EXPECT_NE(text.find("INFEASIBLE"), std::string::npos);

  const auto objectives =
      dse::EvaluateImplementation(sys.spec, sys.augmentation, sys.impl);
  EXPECT_EQ(objectives.sessions_without_bandwidth, 1u);
  EXPECT_TRUE(std::isinf(objectives.shutoff_time_ms));

  SessionExecutor executor(sys.spec, sys.augmentation);
  const auto report = executor.Execute(sys.impl);
  ASSERT_EQ(report.sessions.size(), 1u);
  EXPECT_FALSE(report.sessions.front().executed);
  EXPECT_FALSE(report.all_completed);
  EXPECT_NE(report.sessions.front().failure.find("no mirrored bandwidth"),
            std::string::npos);
}

// Three ECUs on two segments (500 and 250 kbit/s) behind a gateway, each
// sending one fast functional message; two of the messages cross the
// gateway. Short mirrored transfers keep a frame-level trace small.
struct TwoSegmentSystem {
  model::Specification spec;
  model::BistAugmentation augmentation;
  model::Implementation impl;

  TwoSegmentSystem() {
    using namespace model;
    auto& arch = spec.Architecture();
    const ResourceId gw =
        arch.AddResource({"gw", ResourceKind::Gateway, 20.0, 0.0005, 0});
    const ResourceId can0 =
        arch.AddResource({"can0", ResourceKind::Bus, 3.0, 0, 500e3});
    const ResourceId can1 =
        arch.AddResource({"can1", ResourceKind::Bus, 3.0, 0, 250e3});
    const ResourceId ecus[] = {
        arch.AddResource({"ecu0", ResourceKind::Ecu, 10.0, 0.001, 0}),
        arch.AddResource({"ecu1", ResourceKind::Ecu, 10.0, 0.001, 0}),
        arch.AddResource({"ecu2", ResourceKind::Ecu, 10.0, 0.001, 0})};
    arch.AddLink(gw, can0);
    arch.AddLink(gw, can1);
    arch.AddLink(ecus[0], can0);
    arch.AddLink(ecus[1], can0);
    arch.AddLink(ecus[2], can1);

    auto& app = spec.Application();
    TaskId tasks[4];
    for (int t = 0; t < 4; ++t) {
      tasks[t] = app.AddTask(
          {.name = "t" + std::to_string(t), .kind = TaskKind::Functional});
    }
    // (sender, receiver, payload, period): t3 runs on the gateway.
    const struct {
      int from, to;
      std::uint32_t bytes;
      double period_ms;
    } messages[] = {{0, 3, 8, 2.0}, {1, 2, 4, 5.0}, {2, 0, 6, 2.5},
                    {3, 1, 2, 10.0}};
    for (const auto& m : messages) {
      Message msg;
      msg.name = "m" + std::to_string(m.from) + std::to_string(m.to);
      msg.sender = tasks[m.from];
      msg.receivers = {tasks[m.to]};
      msg.payload_bytes = m.bytes;
      msg.period_ms = m.period_ms;
      app.AddMessage(msg);
    }
    for (int e = 0; e < 3; ++e) spec.AddMapping(tasks[e], ecus[e]);
    spec.AddMapping(tasks[3], gw);

    std::map<ResourceId, std::vector<bist::BistProfile>> profiles;
    for (ResourceId ecu : ecus) {
      bist::BistProfile profile;
      profile.profile_number = 4;
      profile.num_random_patterns = 500;
      profile.fault_coverage_percent = 95.73;
      profile.runtime_ms = 1.71;
      profile.data_bytes = 1200;
      profiles[ecu] = {profile};
    }
    augmentation = AugmentWithBist(spec, profiles);

    // Bind everything; pattern memories go to the gateway.
    for (std::size_t i = 0; i < spec.Mappings().size(); ++i) {
      const auto& opt = spec.Mappings()[i];
      bool local_memory = false;
      for (const auto& [ecu, programs] : augmentation.programs_by_ecu) {
        local_memory |= opt.task == programs[0].data_task && opt.resource != gw;
      }
      if (!local_memory) impl.binding.push_back(i);
    }
    if (!CompleteRoutingAndAllocation(spec, RouteTable(spec.Architecture()),
                                      impl)) {
      throw std::logic_error("two-segment system must route");
    }
  }
};

// Pins: what the executor computes. The hashes cover every field of every
// SessionExecution of a 3-round adversarial campaign and every event of a
// frame-traced lossy Execute; they were recorded from the serial executor
// on the map-and-heap engine, so sessions run on the pool and the split
// event queue must reproduce them exactly.
TEST(SessionExecutor, CampaignExecutionsArePinned) {
  auto cs = ScaledCaseStudy();
  dse::SatDecoder decoder(cs.spec, cs.augmentation);
  const auto impl = Forced(cs, decoder, /*local=*/false);

  CampaignScheduleSpec schedule;
  schedule.rounds = 3;
  const CampaignReport campaign = RunAdversarialCampaign(
      cs.spec, cs.augmentation, impl, SessionExecutorOptions{}, schedule);
  ASSERT_EQ(campaign.rounds.size(), 4u);
  EXPECT_TRUE(campaign.Passed());
  testing::ExecutionHasher hash;
  hash.Campaign(campaign);
  EXPECT_EQ(hash.Value(), 0xa6c63df0bc63b2edULL);
}

TEST(SessionExecutor, FrameTracedExecutionIsPinned) {
  TwoSegmentSystem sys;
  SessionExecutorOptions options;
  options.faults.drop_rate = 0.01;
  options.faults.seed = 7;
  options.trace_frames = true;
  SessionExecutor executor(sys.spec, sys.augmentation, options);
  EventTrace trace;
  const auto report = executor.Execute(sys.impl, &trace);
  ASSERT_EQ(report.sessions.size(), 3u);
  EXPECT_TRUE(report.all_completed);
  EXPECT_GT(report.total_retransmissions, 0u);
  EXPECT_GT(testing::CountKind(trace, TraceEventKind::GatewayForward), 0u);
  testing::ExecutionHasher report_hash;
  report_hash.Report(report);
  testing::ExecutionHasher trace_hash;
  trace_hash.Trace(trace.Events());
  EXPECT_EQ(trace.Events().size(), 12715u);
  EXPECT_EQ(report_hash.Value(), 0x35f77db5e29eb531ULL);
  EXPECT_EQ(trace_hash.Value(), 0x11c941fc2a92ce70ULL);
}

}  // namespace
}  // namespace bistdse::net
