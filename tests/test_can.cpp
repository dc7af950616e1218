#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "bus_engine.hpp"
#include "can/bus.hpp"
#include "can/mirroring.hpp"

namespace bistdse::can {
namespace {

CanMessage Msg(CanId id, std::uint32_t bytes, double period_ms,
               const std::string& name = {}) {
  CanMessage m;
  m.id = id;
  m.payload_bytes = bytes;
  m.period_ms = period_ms;
  m.name = name.empty() ? "m" + std::to_string(id) : name;
  return m;
}

TEST(CanMessage, WorstCaseFrameBits) {
  // 8-byte frame: 34 + 64 + 13 + floor(97/4) = 135 bits.
  EXPECT_EQ(Msg(1, 8, 10).WorstCaseFrameBits(), 135u);
  // 0-byte frame: 34 + 0 + 13 + floor(33/4) = 55 bits.
  EXPECT_EQ(Msg(1, 0, 10).WorstCaseFrameBits(), 55u);
  // 1-byte frame: 34 + 8 + 13 + floor(41/4) = 65 bits.
  EXPECT_EQ(Msg(1, 1, 10).WorstCaseFrameBits(), 65u);
}

TEST(CanMessage, ExtendedIdFramesAreLonger) {
  CanMessage std_id = Msg(1, 8, 10);
  CanMessage ext_id = std_id;
  ext_id.extended_id = true;
  // 29-bit id: 54 + 64 + 13 + floor(117/4) = 160 bits (vs 135).
  EXPECT_EQ(ext_id.WorstCaseFrameBits(), 160u);
  EXPECT_GT(ext_id.FrameTimeMs(500e3), std_id.FrameTimeMs(500e3));
}

TEST(CanBus, JitterRaisesResponseTimes) {
  CanBus calm("a", 500e3);
  CanBus jittery("b", 500e3);
  CanMessage hi = Msg(1, 8, 2);
  CanMessage lo = Msg(2, 8, 10);
  calm.AddMessage(hi);
  calm.AddMessage(lo);
  hi.jitter_ms = 1.8;  // pushes a second interference hit into the window
  jittery.AddMessage(hi);
  jittery.AddMessage(lo);
  const auto calm_r = calm.ResponseTime(2);
  const auto jittery_r = jittery.ResponseTime(2);
  ASSERT_TRUE(calm_r && jittery_r);
  EXPECT_GT(jittery_r->worst_case_ms, calm_r->worst_case_ms);
}

TEST(CanMessage, FrameTimeAt500k) {
  // 135 bits at 500 kbit/s = 270 us.
  EXPECT_NEAR(Msg(1, 8, 10).FrameTimeMs(500e3), 0.270, 1e-9);
}

TEST(CanBus, RejectsInvalidMessages) {
  CanBus bus("b");
  bus.AddMessage(Msg(1, 8, 10));
  EXPECT_THROW(bus.AddMessage(Msg(1, 8, 10)), std::invalid_argument);
  EXPECT_THROW(bus.AddMessage(Msg(2, 9, 10)), std::invalid_argument);
  EXPECT_THROW(bus.AddMessage(Msg(3, 8, 0.0)), std::invalid_argument);
}

TEST(CanBus, HighestPriorityOnlyBlockedByOneFrame) {
  CanBus bus("b", 500e3);
  bus.AddMessage(Msg(1, 8, 10));
  bus.AddMessage(Msg(2, 8, 10));
  const auto r = bus.ResponseTime(1);
  ASSERT_TRUE(r.has_value());
  // R(highest) = blocking (one 8-byte frame) + own frame time.
  EXPECT_NEAR(r->worst_case_ms, 0.270 + 0.270, 1e-9);
  EXPECT_TRUE(r->schedulable);
}

TEST(CanBus, LowerPrioritySuffersInterference) {
  CanBus bus("b", 500e3);
  bus.AddMessage(Msg(1, 8, 1.0));
  bus.AddMessage(Msg(2, 8, 1.0));
  bus.AddMessage(Msg(3, 8, 10.0));
  const auto r1 = bus.ResponseTime(1);
  const auto r3 = bus.ResponseTime(3);
  ASSERT_TRUE(r1 && r3);
  // id 3 sees repeated interference from two 1 ms senders; id 1 sees only
  // one blocking frame.
  EXPECT_GT(r3->worst_case_ms, r1->worst_case_ms);
}

TEST(CanBus, ConvergesToUnschedulableFixpoint) {
  CanBus bus("b", 500e3);
  bus.AddMessage(Msg(1, 8, 0.3));  // util 0.9
  bus.AddMessage(Msg(2, 8, 0.5));  // util 0.54 -> total 1.44
  const auto r2 = bus.ResponseTime(2);
  ASSERT_TRUE(r2.has_value());  // fixpoint exists but misses the deadline
  EXPECT_FALSE(r2->schedulable);
  EXPECT_FALSE(testing::Schedulable(bus));
}

TEST(CanBus, DivergesWhenHigherPrioritySaturates) {
  CanBus bus("b", 500e3);
  bus.AddMessage(Msg(1, 8, 0.2));  // util 1.35 alone
  bus.AddMessage(Msg(2, 8, 1.0));
  EXPECT_FALSE(bus.ResponseTime(2).has_value());
  EXPECT_FALSE(testing::Schedulable(bus));
}

TEST(CanBus, UnknownIdGivesNullopt) {
  CanBus bus("b");
  EXPECT_FALSE(bus.ResponseTime(42).has_value());
}

// Property: the analytical WCRT bound dominates every simulated response
// time, and the bound is tight for the synchronous release case of the
// highest-priority messages.
TEST(BusSimulation, AnalysisBoundsSimulation) {
  CanBus bus("b", 500e3);
  bus.AddMessage(Msg(1, 2, 5));
  bus.AddMessage(Msg(2, 8, 10));
  bus.AddMessage(Msg(3, 4, 10));
  bus.AddMessage(Msg(4, 8, 20));
  bus.AddMessage(Msg(5, 1, 50));
  ASSERT_TRUE(testing::Schedulable(bus));

  const auto sim = testing::RunBusOnEngine(bus, 5000.0);
  ASSERT_EQ(sim.per_id.size(), 5u);
  for (const auto& [id, stats] : sim.per_id) {
    ASSERT_GT(stats.frames_sent, 0u);
    const auto bound = bus.ResponseTime(id);
    ASSERT_TRUE(bound.has_value());
    EXPECT_LE(stats.max_response_ms, bound->worst_case_ms + 1e-9)
        << "id " << id;
  }
  EXPECT_GT(sim.Utilization(), 0.0);
  EXPECT_LE(sim.Utilization(), 1.0 + 1e-9);
}

TEST(BusSimulation, StaggeredOffsetsReduceResponses) {
  CanBus bus("b", 500e3);
  bus.AddMessage(Msg(1, 8, 2));
  bus.AddMessage(Msg(2, 8, 2));
  bus.AddMessage(Msg(3, 8, 2));
  const auto sync = testing::RunBusOnEngine(bus, 1000.0);
  const auto staggered =
      testing::RunBusOnEngine(bus, 1000.0, {{1, 0.0}, {2, 0.6}, {3, 1.2}});
  EXPECT_LE(staggered.Of(3).max_response_ms, sync.Of(3).max_response_ms);
}

TEST(Mirroring, Eq1TransferTime) {
  // Paper Eq. (1): q = s(b^D) / sum s(c)/p(c).
  std::vector<CanMessage> functional = {Msg(10, 8, 10), Msg(20, 4, 20)};
  // bytes/ms: 8/10 + 4/20 = 1.0 -> 1 MB takes 1e6 ms.
  EXPECT_NEAR(MirroredTransferTimeMs(1000000, functional), 1e6, 1e-3);
  // 455061 bytes (profile 4) over 1 byte/ms = 455 s.
  EXPECT_NEAR(MirroredTransferTimeMs(455061, functional), 455061.0, 1e-3);
}

TEST(Mirroring, NoFunctionalMessagesMeansNoBandwidth) {
  EXPECT_TRUE(std::isinf(MirroredTransferTimeMs(100, {})));
}

TEST(Mirroring, MirroredMessagesKeepTimingProperties) {
  std::vector<CanMessage> functional = {Msg(16, 8, 10, "speed"),
                                        Msg(32, 2, 20, "torque")};
  const auto mirrored = MakeMirroredMessages(functional, 1);
  ASSERT_EQ(mirrored.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(mirrored[i].id, functional[i].id + 1);
    EXPECT_EQ(mirrored[i].payload_bytes, functional[i].payload_bytes);
    EXPECT_EQ(mirrored[i].period_ms, functional[i].period_ms);
    EXPECT_EQ(mirrored[i].name, functional[i].name + "'");
  }
}

TEST(Mirroring, MirroredTransferIsNonIntrusive) {
  // Sparse ids so the +1 mirror offset preserves relative priority.
  CanBus bus("body", 500e3);
  std::vector<CanMessage> ecu = {Msg(16, 8, 5, "e1"), Msg(48, 4, 10, "e2")};
  bus.AddMessage(Msg(0, 4, 5));
  bus.AddMessage(ecu[0]);
  bus.AddMessage(Msg(32, 8, 10));
  bus.AddMessage(ecu[1]);
  bus.AddMessage(Msg(64, 6, 20));
  ASSERT_TRUE(testing::Schedulable(bus));

  const auto mirrored = MakeMirroredMessages(ecu, 1);
  const auto report = CheckNonIntrusiveness(bus, ecu, mirrored);
  EXPECT_TRUE(report.non_intrusive);
  EXPECT_NEAR(report.max_wcrt_increase_ms, 0.0, 1e-12);
  EXPECT_TRUE(report.newly_unschedulable.empty());
}

TEST(Mirroring, BurstTransferIsIntrusive) {
  // All functional frames are small: the 8-byte burst frames then raise the
  // worst-case blocking of every higher-priority message — the "could affect
  // the timing of functional messages ... even with lowest priority" effect
  // of paper §III-B (non-preemptive CAN arbitration).
  CanBus bus("body", 500e3);
  std::vector<CanMessage> ecu = {Msg(16, 2, 5, "e1")};
  bus.AddMessage(Msg(0, 2, 5));
  bus.AddMessage(ecu[0]);
  bus.AddMessage(Msg(32, 2, 10));
  bus.AddMessage(Msg(64, 2, 20));
  ASSERT_TRUE(testing::Schedulable(bus));

  const auto burst = MakeBurstTransfer(455061, 100, bus.BitrateBps());
  EXPECT_EQ(burst.frames, (455061u + 7) / 8);
  std::vector<CanMessage> test_set = {burst.message};
  const auto report = CheckNonIntrusiveness(bus, ecu, test_set);
  EXPECT_FALSE(report.non_intrusive);
  EXPECT_GT(report.max_wcrt_increase_ms, 0.0);
}

TEST(Mirroring, BurstFasterButIntrusive) {
  // The ablation's core trade-off: the burst finishes sooner than the
  // mirrored transfer, but only by breaking non-intrusiveness.
  std::vector<CanMessage> functional = {Msg(16, 8, 10)};
  const std::uint64_t bytes = 100000;
  const auto burst = MakeBurstTransfer(bytes, 100, 500e3);
  EXPECT_LT(burst.wire_time_ms, MirroredTransferTimeMs(bytes, functional));
}

// Simulation-level validation of §III-B: swapping an ECU's functional
// messages for their mirrors leaves every other message's observed response
// times bit-identical, while a burst shifts them.
TEST(Mirroring, SimulationConfirmsTimingTransparency) {
  CanBus base("body", 500e3);
  std::vector<CanMessage> ecu = {Msg(16, 4, 5, "e1"), Msg(48, 2, 10, "e2")};
  base.AddMessage(Msg(0, 2, 5));
  base.AddMessage(ecu[0]);
  base.AddMessage(Msg(32, 4, 10));
  base.AddMessage(ecu[1]);
  base.AddMessage(Msg(64, 2, 20));

  CanBus swapped("body'", 500e3);
  const auto mirrored = MakeMirroredMessages(ecu, 1);
  for (const CanMessage& m : base.Messages()) {
    if (m.id == 16 || m.id == 48) continue;
    swapped.AddMessage(m);
  }
  for (const CanMessage& m : mirrored) swapped.AddMessage(m);

  const auto rb = testing::RunBusOnEngine(base, 2000.0);
  const auto rs = testing::RunBusOnEngine(swapped, 2000.0);
  for (CanId id : {0u, 32u, 64u}) {
    EXPECT_DOUBLE_EQ(rs.Of(id).max_response_ms, rb.Of(id).max_response_ms)
        << "id " << id;
    EXPECT_EQ(rs.Of(id).frames_sent, rb.Of(id).frames_sent);
  }
  // The mirrors themselves observe the same timing as the originals.
  EXPECT_DOUBLE_EQ(rs.Of(17).max_response_ms, rb.Of(16).max_response_ms);
  EXPECT_DOUBLE_EQ(rs.Of(49).max_response_ms, rb.Of(48).max_response_ms);
}

}  // namespace
}  // namespace bistdse::can
