// Unit tests of the discrete-event network engine, the segmented transport,
// the fault injector, and the event trace.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>

#include "net/engine.hpp"
#include "net/fault_injector.hpp"
#include "net/trace.hpp"
#include "net/transport.hpp"
#include "trace_count.hpp"

namespace bistdse::net {
namespace {

can::CanMessage Msg(can::CanId id, std::uint32_t bytes, double period_ms) {
  can::CanMessage m;
  m.id = id;
  m.payload_bytes = bytes;
  m.period_ms = period_ms;
  m.name = "m" + std::to_string(id);
  return m;
}

PeriodicSlot Slot(can::CanMessage message, std::vector<BusIndex> path,
                  std::vector<can::CanId> hop_ids, SlotClient* client = nullptr,
                  double first_release_ms = 0.0) {
  PeriodicSlot slot;
  slot.message = std::move(message);
  slot.path = std::move(path);
  slot.hop_ids = std::move(hop_ids);
  slot.client = client;
  slot.first_release_ms = first_release_ms;
  return slot;
}

TEST(NetworkEngine, LowestIdWinsArbitration) {
  NetworkEngine engine;
  const BusIndex bus = engine.AddBus("b", 500e3);
  // Both released at t = 0; the lower id must transmit first, the higher id
  // waits exactly one frame time.
  engine.AddSlot(Slot(Msg(1, 8, 10), {bus}, {1}));
  engine.AddSlot(Slot(Msg(2, 8, 10), {bus}, {2}));
  engine.Run(99.5);  // ten whole periods (a release at t=100 would start an
                     // eleventh frame and skew the busy-time bookkeeping)

  const double frame_ms = Msg(1, 8, 10).FrameTimeMs(500e3);
  EXPECT_NEAR(engine.StatsOf(0, 0).max_response_ms, frame_ms, 1e-9);
  EXPECT_NEAR(engine.StatsOf(1, 0).max_response_ms, 2 * frame_ms, 1e-9);
  EXPECT_EQ(engine.StatsOf(0, 0).frames_sent, 10u);
  EXPECT_EQ(engine.StatsOf(1, 0).frames_sent, 10u);
  EXPECT_NEAR(engine.BusBusyMs(bus), 20 * frame_ms, 1e-9);
}

TEST(NetworkEngine, GatewayForwardsAcrossSegments) {
  EventTrace trace;
  NetworkEngine engine(nullptr, &trace, /*trace_frames=*/true);
  engine.SetGatewayDelayMs(0.5);
  const BusIndex b0 = engine.AddBus("b0", 500e3);
  const BusIndex b1 = engine.AddBus("b1", 500e3);
  // One message crossing both segments with remapped ids.
  engine.AddSlot(Slot(Msg(4, 8, 10), {b0, b1}, {4, 20}));
  engine.Run(9.0);  // within one period: exactly one frame per segment

  EXPECT_EQ(engine.StatsOf(0, 0).frames_sent, 1u);
  EXPECT_EQ(engine.StatsOf(0, 1).frames_sent, 1u);
  const double frame_ms = Msg(4, 8, 10).FrameTimeMs(500e3);
  // Second hop completes after frame + gateway delay + frame.
  EXPECT_NEAR(engine.StatsOf(0, 1).max_response_ms, frame_ms, 1e-9);
  EXPECT_EQ(testing::CountKind(trace, TraceEventKind::GatewayForward), 1u);
  EXPECT_NEAR(engine.BusBusyMs(b0), frame_ms, 1e-9);
  EXPECT_NEAR(engine.BusBusyMs(b1), frame_ms, 1e-9);
}

TEST(NetworkEngine, RejectsMalformedSlots) {
  NetworkEngine engine;
  const BusIndex bus = engine.AddBus("b", 500e3);
  EXPECT_THROW(engine.AddSlot(Slot(Msg(1, 8, 10), {}, {})),
               std::invalid_argument);
  EXPECT_THROW(engine.AddSlot(Slot(Msg(1, 8, 10), {bus}, {1, 2})),
               std::invalid_argument);
  EXPECT_THROW(engine.AddSlot(Slot(Msg(1, 8, 0), {bus}, {1})),
               std::invalid_argument);
  EXPECT_THROW(engine.AddSlot(Slot(Msg(1, 8, 10), {bus, bus}, {1, 2},
                                   reinterpret_cast<SlotClient*>(0x1))),
               std::invalid_argument);
  // Periods and first releases must be finite: NaN fails every comparison,
  // so a `<= 0` check alone lets it through.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (double period : {-1.0, nan, inf}) {
    EXPECT_THROW(engine.AddSlot(Slot(Msg(1, 8, period), {bus}, {1})),
                 std::invalid_argument)
        << period;
  }
  for (double first : {-0.5, nan, inf}) {
    EXPECT_THROW(
        engine.AddSlot(Slot(Msg(1, 8, 10), {bus}, {1}, nullptr, first)),
        std::invalid_argument)
        << first;
  }
  // A first release must not lie before NowMs(): the engine would process
  // it in the past.
  engine.AddSlot(Slot(Msg(1, 8, 10), {bus}, {1}));
  engine.Run(25.0);
  EXPECT_THROW(
      engine.AddSlot(Slot(Msg(2, 8, 10), {bus}, {2}, nullptr, 24.0)),
      std::invalid_argument);
  EXPECT_NO_THROW(
      engine.AddSlot(Slot(Msg(2, 8, 10), {bus}, {2}, nullptr, 25.0)));
  EXPECT_EQ(engine.SlotCount(), 2u);
}

// A bitrate that is not finite and positive would give non-positive or NaN
// frame times, and completions scheduled before NowMs().
TEST(NetworkEngine, RejectsUnusableBitrates) {
  NetworkEngine engine;
  for (double bitrate : {0.0, -500e3, std::numeric_limits<double>::quiet_NaN(),
                         std::numeric_limits<double>::infinity()}) {
    EXPECT_THROW(engine.AddBus("b", bitrate), std::invalid_argument)
        << bitrate;
  }
  EXPECT_EQ(engine.AddBus("b", 125e3), 0u);
}

// CAN ids are only unique per segment: equal ids on two buses of one engine
// are different messages with separate SlotHopStats.
TEST(NetworkEngine, EqualIdsOnTwoBusesKeepSeparateStats) {
  NetworkEngine engine;
  const BusIndex body = engine.AddBus("body", 500e3);
  const BusIndex chassis = engine.AddBus("chassis", 500e3);
  const std::size_t speed = engine.AddSlot(Slot(Msg(1, 8, 10), {body}, {1}));
  engine.AddSlot(Slot(Msg(0, 8, 5), {chassis}, {0}));  // delays brake only
  const std::size_t brake = engine.AddSlot(Slot(Msg(1, 2, 5), {chassis}, {1}));
  engine.Run(999.0);

  const SlotHopStats& body_stats = engine.StatsOf(speed, 0);
  const SlotHopStats& chassis_stats = engine.StatsOf(brake, 0);
  EXPECT_EQ(body_stats.frames_sent, 100u);
  EXPECT_EQ(chassis_stats.frames_sent, 200u);
  const double speed_ms = Msg(1, 8, 10).FrameTimeMs(500e3);
  EXPECT_NEAR(body_stats.max_response_ms, speed_ms, 1e-9);
  EXPECT_NEAR(chassis_stats.max_response_ms,
              Msg(0, 8, 5).FrameTimeMs(500e3) +
                  Msg(1, 2, 5).FrameTimeMs(500e3),
              1e-9);
  EXPECT_NE(body_stats.max_response_ms, chassis_stats.max_response_ms);
  EXPECT_NEAR(engine.BusBusyMs(body), 100 * speed_ms, 1e-9);
}

TEST(SegmentedTransfer, ZeroLossRateMatchesSlotGoodput) {
  NetworkEngine engine;
  const BusIndex bus = engine.AddBus("b", 500e3);
  SegmentedTransfer transfer(1, "t", 8000, {}, nullptr);
  // 8 B every 1 ms -> 8 B/ms; first release after one period.
  engine.AddSlot(Slot(Msg(2, 8, 1.0), {bus}, {2}, &transfer, 1.0));
  transfer.Begin(0.0);
  engine.Run(5000.0, [&] { return transfer.Finished(); });

  ASSERT_TRUE(transfer.Done());
  EXPECT_EQ(transfer.Stats().frames_sent, 1000u);
  EXPECT_EQ(transfer.Stats().retransmissions, 0u);
  EXPECT_GE(transfer.ElapsedMs(), 1000.0);       // never beats Eq. 1
  EXPECT_LE(transfer.ElapsedMs(), 1100.0);       // small FC/discretization tail
  EXPECT_GT(transfer.Stats().fc_grants, 0u);
}

TEST(SegmentedTransfer, SurvivesHeavyLossViaRetries) {
  FaultInjector injector({.drop_rate = 0.2, .corrupt_rate = 0.05, .seed = 9});
  EventTrace trace;
  NetworkEngine engine(&injector, &trace);
  const BusIndex bus = engine.AddBus("b", 500e3);
  TransportConfig config;
  config.max_retries = 32;
  SegmentedTransfer transfer(1, "t", 2000, config, &trace);
  engine.AddSlot(Slot(Msg(2, 8, 1.0), {bus}, {2}, &transfer, 1.0));
  transfer.Begin(0.0);
  engine.Run(60000.0, [&] { return transfer.Finished(); });

  ASSERT_TRUE(transfer.Done()) << "failed: " << transfer.Failed();
  EXPECT_GT(transfer.Stats().retransmissions, 0u);
  EXPECT_GT(transfer.Stats().dropped + transfer.Stats().corrupted, 0u);
  EXPECT_EQ(testing::CountKind(trace, TraceEventKind::Retransmission),
            transfer.Stats().retransmissions);
  // 25 % loss stretches the transfer well past the lossless 250 ms.
  EXPECT_GT(transfer.ElapsedMs(), 250.0);
}

TEST(SegmentedTransfer, ExhaustedRetryBudgetFailsTheTransfer) {
  FaultInjector injector({.drop_rate = 1.0, .seed = 3});  // every frame lost
  EventTrace trace;
  NetworkEngine engine(&injector, &trace);
  const BusIndex bus = engine.AddBus("b", 500e3);
  SegmentedTransfer transfer(1, "t", 64, {}, &trace);
  engine.AddSlot(Slot(Msg(2, 8, 1.0), {bus}, {2}, &transfer, 1.0));
  transfer.Begin(0.0);
  engine.Run(10000.0, [&] { return transfer.Finished(); });

  EXPECT_TRUE(transfer.Failed());
  EXPECT_FALSE(transfer.Done());
  EXPECT_EQ(testing::CountKind(trace, TraceEventKind::TransferFailed), 1u);
  EXPECT_EQ(transfer.Stats().max_retry_burst, 9u);  // max_retries + 1
}

TEST(SegmentedTransfer, TimeoutFailsSlowTransfers) {
  NetworkEngine engine;
  const BusIndex bus = engine.AddBus("b", 500e3);
  TransportConfig config;
  config.timeout_ms = 50.0;  // 8 B/ms cannot move 8000 B in 50 ms
  SegmentedTransfer transfer(1, "t", 8000, config, nullptr);
  engine.AddSlot(Slot(Msg(2, 8, 1.0), {bus}, {2}, &transfer, 1.0));
  transfer.Begin(0.0);
  engine.Run(5000.0, [&] { return transfer.Finished(); });
  EXPECT_TRUE(transfer.Failed());
}

// A rate is a probability and a frame has one fate: construction throws
// naming the field for a rate outside [0, 1] (NaN included) or rates that
// sum past 1.
TEST(FaultInjector, RatesMustBeProbabilities) {
  const auto error_of = [](const FaultInjectorConfig& config) -> std::string {
    try {
      FaultInjector injector(config);
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "";
  };
  EXPECT_EQ(error_of({}), "");
  EXPECT_EQ(error_of({.drop_rate = 1.0}), "");
  EXPECT_EQ(error_of({.drop_rate = 0.5, .corrupt_rate = 0.25,
                      .reorder_rate = 0.25}),
            "");
  EXPECT_NE(error_of({.drop_rate = 7.0}).find("drop_rate must be in [0, 1]"),
            std::string::npos);
  EXPECT_NE(error_of({.drop_rate = -0.1}).find("drop_rate"),
            std::string::npos);
  EXPECT_NE(error_of({.corrupt_rate = 1.5}).find("corrupt_rate"),
            std::string::npos);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_NE(error_of({.reorder_rate = nan}).find("reorder_rate"),
            std::string::npos);
  EXPECT_NE(error_of({.drop_rate = 0.6, .corrupt_rate = 0.3,
                      .reorder_rate = 0.2})
                .find("drop_rate + corrupt_rate + reorder_rate must be <= 1"),
            std::string::npos);
}

TEST(FaultInjector, DeterministicAndCounted) {
  FaultInjectorConfig config{.drop_rate = 0.3, .corrupt_rate = 0.1, .seed = 5};
  FaultInjector a(config), b(config);
  std::uint64_t delivered = 0;
  for (int i = 0; i < 2000; ++i) {
    const FrameFate fa = a.Judge(true);
    ASSERT_EQ(static_cast<int>(fa), static_cast<int>(b.Judge(true)));
    if (fa == FrameFate::Delivered) ++delivered;
  }
  EXPECT_EQ(a.TotalDropped(), b.TotalDropped());
  // ~60 % delivered, +-5 % tolerance over 2000 draws.
  EXPECT_NEAR(static_cast<double>(delivered) / 2000.0, 0.6, 0.05);

  FaultInjectorConfig off = config;
  off.affect_functional = false;
  FaultInjector c(off);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(static_cast<int>(c.Judge(false)),
              static_cast<int>(FrameFate::Delivered));
  }
}

TEST(EventTrace, JsonlIsOneObjectPerLineWithEscaping) {
  EventTrace trace;
  trace.Record({1.5, TraceEventKind::PhaseStart, "body", 3, 7, 2,
                "note with \"quotes\" and \\backslash"});
  trace.Record({2.0, TraceEventKind::FrameDropped, "chassis", 4, 0, 0, ""});
  // Frames 0.25 ms apart late in a long run keep distinct times, and a time
  // past 10^6 ms prints without an exponent.
  trace.Record({123456.789, TraceEventKind::FrameReleased, "", 0, 0, 0, ""});
  trace.Record({123457.039, TraceEventKind::FrameReleased, "", 0, 0, 0, ""});
  trace.Record({1234567.25, TraceEventKind::FrameReleased, "", 0, 0, 0, ""});
  // Control characters in a note are escaped, so a newline cannot split
  // the object across lines.
  trace.Record({3.0, TraceEventKind::PhaseEnd, "", 0, 0, 0, "a\x01" "b\nc"});
  std::ostringstream out;
  trace.WriteJsonl(out);
  const std::string text = out.str();
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 6);
  EXPECT_NE(text.find("\"kind\":\"phase_start\""), std::string::npos);
  EXPECT_NE(text.find("\\\"quotes\\\""), std::string::npos);
  EXPECT_NE(text.find("\\\\backslash"), std::string::npos);
  EXPECT_NE(text.find("{\"t_ms\":123456.789,"), std::string::npos);
  EXPECT_NE(text.find("{\"t_ms\":123457.039,"), std::string::npos);
  EXPECT_NE(text.find("{\"t_ms\":1234567.25,"), std::string::npos);
  EXPECT_NE(text.find("\"note\":\"a\\u0001b\\u000ac\"}\n"),
            std::string::npos);
  EXPECT_EQ(testing::CountKind(trace, TraceEventKind::FrameDropped), 1u);
  trace.Clear();
  EXPECT_TRUE(trace.Events().empty());
}

}  // namespace
}  // namespace bistdse::net
