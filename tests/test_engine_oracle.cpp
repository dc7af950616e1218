// Oracle for the network engine's event order.
//
// ReferenceEngine below is the map-and-heap engine that net::NetworkEngine
// replaced, kept verbatim: one std::priority_queue holds releases, gateway
// hop arrivals and bus completions, and each bus keeps its ready frames in a
// std::map keyed by CAN id. Both engines run the same seeded random
// networks — 1-8 buses at mixed bitrates, CAN ids shared across buses and
// between slots of one bus, non-integer periods and offsets, offsets that
// land exactly on frame completions, multi-hop gateway paths, segmented
// transfers behind a switched SlotClientMux, a fault injector, slots added
// between Run calls, several horizons with and without a stop predicate, and
// frame tracing — and every observable must match exactly: each FillFrame
// and OnOutcome call, every SlotHopStats field, the bus busy times, NowMs
// after each Run, and the recorded trace.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <queue>
#include <sstream>
#include <string>
#include <vector>

#include "net/engine.hpp"
#include "net/fault_injector.hpp"
#include "net/trace.hpp"
#include "net/transport.hpp"
#include "util/rng.hpp"

namespace bistdse::net {
namespace {

// --- the reference engine (verbatim) ---------------------------------------

class ReferenceEngine {
 public:
  explicit ReferenceEngine(FaultInjector* injector = nullptr,
                           EventTrace* trace = nullptr,
                           bool trace_frames = false)
      : injector_(injector), trace_(trace), trace_frames_(trace_frames) {}

  BusIndex AddBus(std::string name, double bitrate_bps);

  /// Registers a slot and schedules its first release. `path` and `hop_ids`
  /// must be non-empty and of equal size. Returns the slot index.
  std::size_t AddSlot(PeriodicSlot slot);

  void SetGatewayDelayMs(double delay_ms) { gateway_delay_ms_ = delay_ms; }

  /// Advances simulated time to `until_ms` (events at exactly `until_ms`
  /// are processed). When `stop` is given it is checked after every frame
  /// outcome; the engine then returns early at the stopping event's time.
  /// Run may be called repeatedly with increasing horizons — slot schedules
  /// and queued frames persist across calls (phased execution).
  double Run(double until_ms, const std::function<bool()>& stop = {});

  double NowMs() const { return now_ms_; }
  std::size_t SlotCount() const { return slots_.size(); }
  const PeriodicSlot& Slot(std::size_t i) const { return slots_[i]; }
  const SlotHopStats& StatsOf(std::size_t slot, std::size_t hop) const {
    return stats_[slot][hop];
  }
  const std::string& BusName(BusIndex bus) const { return buses_[bus].name; }
  double BusBusyMs(BusIndex bus) const { return buses_[bus].busy_ms; }

 private:
  enum class EventKind : std::uint8_t { Release, HopArrival, BusFree };

  struct Event {
    double time_ms;
    std::uint64_t order;  ///< FIFO tie-break for determinism.
    EventKind kind;
    std::uint32_t slot;
    std::uint32_t hop;  ///< For BusFree: the bus index.

    bool operator>(const Event& other) const {
      if (time_ms != other.time_ms) return time_ms > other.time_ms;
      return order > other.order;
    }
  };

  struct PendingFrame {
    std::uint32_t slot;
    std::uint32_t hop;
    double release_ms;
    FrameMeta meta;
  };

  struct Bus {
    std::string name;
    double bitrate_bps;
    std::map<can::CanId, PendingFrame> ready;  ///< Priority order by id.
    std::optional<PendingFrame> in_flight;
    bool busy = false;
    double busy_ms = 0.0;
  };

  void Push(double time_ms, EventKind kind, std::uint32_t slot,
            std::uint32_t hop);
  void HandleRelease(std::uint32_t slot_index);
  void Enqueue(std::uint32_t slot_index, std::uint32_t hop,
               const FrameMeta& meta, double release_ms);
  void TryStart(BusIndex bus_index);
  void HandleCompletion(BusIndex bus_index);
  void TraceFrame(TraceEventKind kind, BusIndex bus, can::CanId id,
                  const FrameMeta& meta);

  FaultInjector* injector_;
  EventTrace* trace_;
  bool trace_frames_;
  double gateway_delay_ms_ = 1.0;
  double now_ms_ = 0.0;
  std::uint64_t order_counter_ = 0;
  std::vector<Bus> buses_;
  std::vector<PeriodicSlot> slots_;
  std::vector<std::vector<SlotHopStats>> stats_;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> events_;
};

BusIndex ReferenceEngine::AddBus(std::string name, double bitrate_bps) {
  Bus bus;
  bus.name = std::move(name);
  bus.bitrate_bps = bitrate_bps;
  buses_.push_back(std::move(bus));
  return buses_.size() - 1;
}

std::size_t ReferenceEngine::AddSlot(PeriodicSlot slot) {
  if (slot.path.empty() || slot.path.size() != slot.hop_ids.size()) {
    throw std::invalid_argument("slot path/hop_ids malformed");
  }
  for (BusIndex b : slot.path) {
    if (b >= buses_.size()) throw std::invalid_argument("unknown bus in path");
  }
  if (slot.message.period_ms <= 0.0) {
    throw std::invalid_argument("slot period must be positive");
  }
  if (slot.client != nullptr && slot.path.size() > 1) {
    // Forwarded frames re-enter with empty metadata; a segmented transfer
    // therefore spans exactly one segment (gateway <-> ECU), which is all
    // the mirrored download/upload paths of the paper need.
    throw std::invalid_argument("transport slots must be single-segment");
  }
  const auto index = static_cast<std::uint32_t>(slots_.size());
  stats_.emplace_back(slot.path.size());
  const double first = slot.first_release_ms;
  slots_.push_back(std::move(slot));
  Push(first, EventKind::Release, index, 0);
  return index;
}

void ReferenceEngine::Push(double time_ms, EventKind kind, std::uint32_t slot,
                           std::uint32_t hop) {
  events_.push(Event{time_ms, order_counter_++, kind, slot, hop});
}

double ReferenceEngine::Run(double until_ms,
                            const std::function<bool()>& stop) {
  while (!events_.empty() && events_.top().time_ms <= until_ms) {
    const Event e = events_.top();
    events_.pop();
    now_ms_ = e.time_ms;
    switch (e.kind) {
      case EventKind::Release:
        HandleRelease(e.slot);
        break;
      case EventKind::HopArrival:
        Enqueue(e.slot, e.hop, FrameMeta{}, now_ms_);
        break;
      case EventKind::BusFree:
        HandleCompletion(e.hop);
        if (stop && stop()) return now_ms_;
        break;
    }
  }
  now_ms_ = std::max(now_ms_, until_ms);
  return now_ms_;
}

void ReferenceEngine::HandleRelease(std::uint32_t slot_index) {
  const PeriodicSlot& slot = slots_[slot_index];
  Push(now_ms_ + slot.message.period_ms, EventKind::Release, slot_index, 0);

  FrameMeta meta;
  if (slot.client != nullptr) {
    // A still-queued previous instance means the slot's last frame has not
    // even started — do not offer the client a second in-flight frame on the
    // same id (the controller buffer holds one frame per object).
    Bus& bus = buses_[slot.path.front()];
    if (bus.ready.count(slot.hop_ids.front()) > 0) return;
    if (!slot.client->FillFrame(now_ms_, slot.message.payload_bytes, meta)) {
      return;  // transport has nothing to send: the mirrored slot idles
    }
  }
  Enqueue(slot_index, 0, meta, now_ms_);
}

void ReferenceEngine::Enqueue(std::uint32_t slot_index, std::uint32_t hop,
                              const FrameMeta& meta, double release_ms) {
  const PeriodicSlot& slot = slots_[slot_index];
  const BusIndex bus_index = slot.path[hop];
  Bus& bus = buses_[bus_index];
  // Overload semantics as in can::CanSimulator: a new functional instance
  // replaces a previous one still queued on the same id.
  bus.ready[slot.hop_ids[hop]] =
      PendingFrame{slot_index, hop, release_ms, meta};
  TraceFrame(TraceEventKind::FrameReleased, bus_index, slot.hop_ids[hop],
             meta);
  TryStart(bus_index);
}

void ReferenceEngine::TryStart(BusIndex bus_index) {
  Bus& bus = buses_[bus_index];
  if (bus.busy || bus.ready.empty()) return;
  const auto top = bus.ready.begin();
  bus.in_flight = top->second;
  bus.ready.erase(top);
  bus.busy = true;
  const PeriodicSlot& slot = slots_[bus.in_flight->slot];
  const double frame_time = slot.message.FrameTimeMs(bus.bitrate_bps);
  bus.busy_ms += frame_time;
  Push(now_ms_ + frame_time, EventKind::BusFree, 0,
       static_cast<std::uint32_t>(bus_index));
}

void ReferenceEngine::HandleCompletion(BusIndex bus_index) {
  Bus& bus = buses_[bus_index];
  const PendingFrame frame = *bus.in_flight;
  bus.in_flight.reset();
  bus.busy = false;

  const PeriodicSlot& slot = slots_[frame.slot];
  const can::CanId id = slot.hop_ids[frame.hop];
  SlotHopStats& stats = stats_[frame.slot][frame.hop];
  ++stats.frames_sent;
  const double response = now_ms_ - frame.release_ms;
  stats.max_response_ms = std::max(stats.max_response_ms, response);
  stats.total_response_ms += response;

  const bool is_transport = frame.meta.transfer != 0;
  const FrameFate fate =
      injector_ != nullptr ? injector_->Judge(is_transport)
                           : FrameFate::Delivered;
  switch (fate) {
    case FrameFate::Reordered:
      // The frame reaches the receiver intact, just out of sequence; the
      // segmented transport reassembles by sequence number, so forwarding
      // and outcome delivery follow the Delivered path — only the counters
      // and trace attribute the event.
      ++stats.frames_reordered;
      if (trace_ != nullptr && (trace_frames_ || is_transport)) {
        trace_->Record({now_ms_, TraceEventKind::FrameReordered, bus.name, id,
                        frame.meta.transfer, frame.meta.seq, ""});
      }
      [[fallthrough]];
    case FrameFate::Delivered:
      TraceFrame(TraceEventKind::FrameCompleted, bus_index, id, frame.meta);
      if (frame.hop + 1 < slot.path.size()) {
        // Store-and-forward: the gateway re-releases the frame on the next
        // segment after its processing delay.
        Push(now_ms_ + gateway_delay_ms_, EventKind::HopArrival, frame.slot,
             frame.hop + 1);
        TraceFrame(TraceEventKind::GatewayForward, slot.path[frame.hop + 1],
                   slot.hop_ids[frame.hop + 1], frame.meta);
      } else if (slot.client != nullptr) {
        slot.client->OnOutcome(now_ms_, frame.meta, fate);
      }
      break;
    case FrameFate::Dropped:
      ++stats.frames_dropped;
      if (trace_ != nullptr && (trace_frames_ || is_transport)) {
        trace_->Record({now_ms_, TraceEventKind::FrameDropped, bus.name, id,
                        frame.meta.transfer, frame.meta.seq, ""});
      }
      if (slot.client != nullptr) {
        slot.client->OnOutcome(now_ms_, frame.meta, fate);
      }
      break;
    case FrameFate::Corrupted:
      ++stats.frames_corrupted;
      if (trace_ != nullptr && (trace_frames_ || is_transport)) {
        trace_->Record({now_ms_, TraceEventKind::FrameCorrupted, bus.name, id,
                        frame.meta.transfer, frame.meta.seq, ""});
      }
      if (slot.client != nullptr) {
        slot.client->OnOutcome(now_ms_, frame.meta, fate);
      }
      break;
  }
  TryStart(bus_index);
}

void ReferenceEngine::TraceFrame(TraceEventKind kind, BusIndex bus,
                                 can::CanId id, const FrameMeta& meta) {
  if (trace_ == nullptr || !trace_frames_) return;
  trace_->Record({now_ms_, kind, buses_[bus].name, id, meta.transfer,
                  meta.seq, ""});
}

// --- what an engine tells the outside world --------------------------------

/// One FillFrame or OnOutcome call, with everything passed in and out.
struct ClientCall {
  int client = 0;
  bool fill = false;
  std::uint64_t time_bits = 0;
  std::uint32_t capacity = 0;
  bool filled = false;
  FrameFate fate = FrameFate::Delivered;
  FrameMeta meta;

  bool operator==(const ClientCall& o) const {
    return client == o.client && fill == o.fill && time_bits == o.time_bits &&
           capacity == o.capacity && filled == o.filled && fate == o.fate &&
           meta.transfer == o.meta.transfer && meta.seq == o.meta.seq &&
           meta.data_bytes == o.meta.data_bytes &&
           meta.first_frame == o.meta.first_frame;
  }
};

std::ostream& operator<<(std::ostream& os, const ClientCall& c) {
  return os << "client " << c.client << (c.fill ? " fill" : " outcome")
            << " t=" << std::bit_cast<double>(c.time_bits) << " filled "
            << c.filled << " fate " << static_cast<int>(c.fate)
            << " transfer " << c.meta.transfer << " seq " << c.meta.seq;
}

/// Forwards to the shared mux and logs every call the engine makes.
class LoggingClient : public SlotClient {
 public:
  LoggingClient(int tag, SlotClient* inner, std::vector<ClientCall>* log)
      : tag_(tag), inner_(inner), log_(log) {}

  bool FillFrame(double now_ms, std::uint32_t payload_capacity,
                 FrameMeta& meta) override {
    const bool filled = inner_->FillFrame(now_ms, payload_capacity, meta);
    ClientCall call;
    call.client = tag_;
    call.fill = true;
    call.time_bits = std::bit_cast<std::uint64_t>(now_ms);
    call.capacity = payload_capacity;
    call.filled = filled;
    call.meta = meta;
    log_->push_back(call);
    return filled;
  }
  void OnOutcome(double now_ms, const FrameMeta& meta,
                 FrameFate fate) override {
    ClientCall call;
    call.client = tag_;
    call.time_bits = std::bit_cast<std::uint64_t>(now_ms);
    call.fate = fate;
    call.meta = meta;
    log_->push_back(call);
    inner_->OnOutcome(now_ms, meta, fate);
  }

 private:
  int tag_;
  SlotClient* inner_;
  std::vector<ClientCall>* log_;
};

/// Everything observable about one engine run, as bit patterns.
struct Observation {
  std::vector<ClientCall> calls;
  std::vector<std::uint64_t> stats;   ///< Every SlotHopStats field, in order.
  std::vector<std::uint64_t> busy;    ///< BusBusyMs per bus.
  std::vector<std::uint64_t> nows;    ///< NowMs after each Run.
  std::vector<std::string> trace;     ///< One line per TraceEvent.
  std::vector<std::uint64_t> stop_hits;  ///< Stop predicate calls per phase.
};

std::uint64_t Bits(double v) { return std::bit_cast<std::uint64_t>(v); }

std::string TraceLine(const TraceEvent& e) {
  std::ostringstream os;
  os << Bits(e.time_ms) << ' ' << ToString(e.kind) << ' ' << e.bus << ' '
     << e.id << ' ' << e.transfer << ' ' << e.seq << ' ' << e.note;
  return os.str();
}

/// Builds the random network of `seed` on `Engine` and runs it in phases.
/// Every random draw happens in the same order for both engines, so the two
/// runs see the same network.
template <typename Engine>
Observation Simulate(std::uint64_t seed) {
  util::SplitMix64 rng(seed);
  Observation obs;

  FaultInjectorConfig faults;
  faults.drop_rate = rng.Chance(0.7) ? 0.08 * rng.UnitReal() : 0.0;
  faults.corrupt_rate = rng.Chance(0.6) ? 0.05 * rng.UnitReal() : 0.0;
  faults.reorder_rate = rng.Chance(0.6) ? 0.05 * rng.UnitReal() : 0.0;
  faults.affect_functional = rng.Chance(0.5);
  faults.seed = seed * 31 + 7;
  FaultInjector injector(faults);
  const bool with_injector = rng.Chance(0.85);
  const bool trace_frames = rng.Chance(0.8);

  EventTrace trace;
  Engine engine(with_injector ? &injector : nullptr, &trace, trace_frames);
  const double gateway_delays[] = {1.0, 0.5, 0.25, 0.3};
  engine.SetGatewayDelayMs(gateway_delays[rng.Below(4)]);

  const std::size_t bus_count = 1 + rng.Below(8);
  const double bitrates[] = {125e3, 250e3, 500e3, 1e6};
  const char* const bus_names[] = {"b0", "b1", "b2", "b3",
                                   "b4", "b5", "b6", "b7"};
  std::vector<double> bus_rate;
  for (std::size_t b = 0; b < bus_count; ++b) {
    bus_rate.push_back(bitrates[rng.Below(4)]);
    engine.AddBus(bus_names[b], bus_rate.back());
  }

  TransportConfig transport;
  transport.block_size = 2 + static_cast<std::uint32_t>(rng.Below(15));
  transport.max_retries = 2 + static_cast<std::uint32_t>(rng.Below(7));
  transport.max_backoff_slots = static_cast<std::uint32_t>(rng.Below(5));
  transport.fc_delay_ms = rng.Chance(0.5) ? 0.1 : 0.25;
  SegmentedTransfer download(1, "download", 64 + rng.Below(1500), transport,
                             &trace);
  SegmentedTransfer upload(3, "upload", 16 + rng.Below(700), transport,
                           &trace);
  SlotClientMux mux;
  std::deque<LoggingClient> clients;

  // Periods include non-integers; ids come from a small range so they are
  // shared across buses and between slots of one bus.
  const double periods[] = {0.75, 1.0, 2.0, 2.5, 3.3, 5.0, 7.25, 10.0, 20.0};
  const auto add_slots = [&](std::size_t count, double not_before) {
    for (std::size_t k = 0; k < count; ++k) {
      PeriodicSlot slot;
      slot.message.payload_bytes = static_cast<std::uint32_t>(rng.Below(9));
      slot.message.period_ms = periods[rng.Below(9)];
      if (rng.Chance(0.15)) slot.message.period_ms += rng.UnitReal();
      slot.message.extended_id = rng.Chance(0.1);
      const bool client = rng.Chance(0.3);
      const std::size_t hops =
          client || bus_count == 1
              ? 1
              : 1 + rng.Below(std::min<std::size_t>(3, bus_count));
      std::vector<BusIndex> path;
      while (path.size() < hops) {
        const BusIndex b = rng.Below(bus_count);
        if (std::find(path.begin(), path.end(), b) == path.end()) {
          path.push_back(b);
        }
      }
      slot.path = path;
      for (std::size_t h = 0; h < hops; ++h) {
        slot.hop_ids.push_back(static_cast<can::CanId>(rng.Below(24)));
      }
      slot.message.id = slot.hop_ids.front();
      // Release phase: synchronous, a non-integer offset, or a sum of frame
      // times on the first segment — the instant a busy bus frees up.
      switch (rng.Below(3)) {
        case 0:
          slot.first_release_ms = not_before;
          break;
        case 1:
          slot.first_release_ms = not_before + 0.25 * rng.Below(12) +
                                  (rng.Chance(0.3) ? rng.UnitReal() : 0.0);
          break;
        default: {
          double t = not_before;
          const std::size_t frames = 1 + rng.Below(3);
          for (std::size_t f = 0; f < frames; ++f) {
            can::CanMessage m;
            m.payload_bytes = static_cast<std::uint32_t>(rng.Below(9));
            t += m.FrameTimeMs(bus_rate[path.front()]);
          }
          slot.first_release_ms = t;
        }
      }
      if (client) {
        clients.emplace_back(static_cast<int>(clients.size()), &mux,
                             &obs.calls);
        slot.client = &clients.back();
      }
      engine.AddSlot(std::move(slot));
    }
  };
  add_slots(2 + rng.Below(6 * bus_count), 0.0);

  std::uint64_t stop_hits = 0;
  const auto record = [&] { obs.nows.push_back(Bits(engine.NowMs())); };

  // Phase 1: download, with or without a stop predicate.
  mux.active = &download;
  download.Begin(engine.NowMs());
  const double h1 = 20.0 + 200.0 * rng.UnitReal();
  if (rng.Chance(0.5)) {
    engine.Run(h1, [&] {
      ++stop_hits;
      return download.Finished();
    });
  } else {
    engine.Run(h1);
  }
  record();

  // Phase 2: carriers idle; new slots join mid-run.
  mux.active = nullptr;
  add_slots(rng.Below(4), engine.NowMs());
  engine.Run(engine.NowMs() + 5.0 + 30.0 * rng.UnitReal());
  record();

  // Phase 3: upload, stopping every few outcomes and resuming.
  mux.active = &upload;
  upload.Begin(engine.NowMs());
  const double h3 = engine.NowMs() + 10.0 + 150.0 * rng.UnitReal();
  const std::uint64_t every = 1 + rng.Below(40);
  while (engine.NowMs() < h3) {
    engine.Run(h3, [&] {
      ++stop_hits;
      return upload.Finished() || stop_hits % every == 0;
    });
    record();
    if (upload.Finished()) break;
  }

  // Phase 4: restore; an exact-event horizon, then a longer one.
  mux.active = nullptr;
  engine.Run(engine.NowMs());
  record();
  engine.Run(engine.NowMs() + 10.0 * rng.UnitReal());
  record();
  obs.stop_hits.push_back(stop_hits);

  for (std::size_t s = 0; s < engine.SlotCount(); ++s) {
    for (std::size_t h = 0; h < engine.Slot(s).path.size(); ++h) {
      const SlotHopStats& st = engine.StatsOf(s, h);
      obs.stats.insert(obs.stats.end(),
                       {st.frames_sent, st.frames_dropped, st.frames_corrupted,
                        st.frames_reordered, Bits(st.max_response_ms),
                        Bits(st.total_response_ms)});
    }
  }
  for (std::size_t b = 0; b < bus_count; ++b) {
    obs.busy.push_back(Bits(engine.BusBusyMs(b)));
  }
  for (const TraceEvent& e : trace.Events()) obs.trace.push_back(TraceLine(e));
  return obs;
}

template <typename T>
void ExpectSameSequence(const std::vector<T>& expected,
                        const std::vector<T>& actual, const char* what,
                        std::uint64_t seed) {
  const std::size_t n = std::min(expected.size(), actual.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (!(expected[i] == actual[i])) {
      ADD_FAILURE() << what << " differ at " << i << " (seed " << seed
                    << "): expected " << expected[i] << ", got "
                    << actual[i];
      return;
    }
  }
  EXPECT_EQ(expected.size(), actual.size()) << what << " (seed " << seed << ")";
}

TEST(EngineOracle, RandomNetworksMatchTheReferenceEngine) {
  std::size_t calls = 0, trace_events = 0;
  for (std::uint64_t seed = 1; seed <= 400; ++seed) {
    const Observation expected = Simulate<ReferenceEngine>(seed);
    const Observation actual = Simulate<NetworkEngine>(seed);
    ExpectSameSequence(expected.calls, actual.calls, "client calls", seed);
    ExpectSameSequence(expected.stats, actual.stats, "slot stats", seed);
    ExpectSameSequence(expected.busy, actual.busy, "bus busy times", seed);
    ExpectSameSequence(expected.nows, actual.nows, "NowMs", seed);
    ExpectSameSequence(expected.trace, actual.trace, "trace", seed);
    ExpectSameSequence(expected.stop_hits, actual.stop_hits, "stop calls",
                       seed);
    if (::testing::Test::HasFailure()) return;
    calls += expected.calls.size();
    trace_events += expected.trace.size();
  }
  // The networks exercise the clients and the trace, not just idle buses.
  EXPECT_GT(calls, 10000u);
  EXPECT_GT(trace_events, 100000u);
}

}  // namespace
}  // namespace bistdse::net
