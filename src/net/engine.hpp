// Discrete-event vehicle-network engine: multiple CAN segments with
// non-preemptive priority arbitration, worst-case stuff-bit frame times
// (can::CanMessage::FrameTimeMs), and gateway store-and-forward between
// segments.
//
// The engine executes *slots*: periodic transmission opportunities. A slot
// without a client models functional background traffic (it always
// transmits). A slot with a SlotClient asks the client for payload at every
// firing — this is how the segmented transport rides the mirrored copies of
// a shut-off ECU's functional messages without ever changing their timing.
//
// The engine runs open-ended in phases, spans bus segments, and reports the
// outcome of every frame to its producer, which is what the retry path of
// the transport layer needs. On a single bus with every slot released at
// t = 0 it replays the critical instant of the analytical WCRT model
// (can::CanBus::ResponseTime); per-slot first releases give staggered
// phases.
//
// Event core: releases and gateway hop arrivals wait in one binary heap;
// each bus holds its in-flight frame and completion in place, and its ready
// frames in a vector sorted by descending CAN id. Every event carries the
// order stamp its parent took from one counter, and Run processes the
// smallest (time, order) among the heap top and the busy buses — exactly
// the sequence of a single event queue, without a heap operation or an
// allocation per frame (docs/PERF.md, "Network engine: event core and
// parallel sessions").
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <string>
#include <vector>

#include "can/message.hpp"
#include "net/fault_injector.hpp"
#include "net/trace.hpp"

namespace bistdse::net {

using BusIndex = std::size_t;

/// Store-and-forward delay of a gateway crossing [ms], unless
/// SetGatewayDelayMs sets another.
inline constexpr double kGatewayDelayMs = 1.0;

/// Transport metadata piggy-backed on a frame. Functional frames keep
/// transfer == 0.
struct FrameMeta {
  std::uint64_t transfer = 0;
  std::uint32_t seq = 0;
  std::uint32_t data_bytes = 0;  ///< Goodput carried by this frame.
  bool first_frame = false;      ///< ISO-TP-style first frame (length header).
};

/// Payload source/sink attached to a slot. FillFrame is called at each slot
/// firing; OnOutcome reports the fate of every frame the client filled.
class SlotClient {
 public:
  virtual ~SlotClient() = default;
  /// Return false to leave the slot idle this period.
  virtual bool FillFrame(double now_ms, std::uint32_t payload_capacity,
                         FrameMeta& meta) = 0;
  virtual void OnOutcome(double now_ms, const FrameMeta& meta,
                         FrameFate fate) = 0;
};

/// One periodic transmission slot, possibly routed over several bus
/// segments (the gateway forwards between consecutive path entries).
struct PeriodicSlot {
  can::CanMessage message;           ///< Payload size / period / jitter.
  std::vector<BusIndex> path;        ///< Bus segments in traversal order.
  std::vector<can::CanId> hop_ids;   ///< CAN id per segment (same size).
  double first_release_ms = 0.0;
  SlotClient* client = nullptr;      ///< nullptr: functional filler traffic.
};

struct SlotHopStats {
  std::uint64_t frames_sent = 0;
  std::uint64_t frames_dropped = 0;
  std::uint64_t frames_corrupted = 0;
  std::uint64_t frames_reordered = 0;
  double max_response_ms = 0.0;
  double total_response_ms = 0.0;
};

class NetworkEngine {
 public:
  explicit NetworkEngine(FaultInjector* injector = nullptr,
                         EventTrace* trace = nullptr,
                         bool trace_frames = false)
      : injector_(injector),
        trace_(trace),
        trace_frames_(trace != nullptr && trace_frames) {}

  /// Adds a bus segment; the bitrate must be finite and positive.
  BusIndex AddBus(std::string name, double bitrate_bps);

  /// Registers a slot and schedules its first release. `path` and `hop_ids`
  /// must be non-empty and of equal size, the period finite and positive,
  /// and the first release finite and not before NowMs(). Slots may be added
  /// between Run calls. Returns the slot index.
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
  enum class EventKind : std::uint8_t { Release, HopArrival };

  struct Event {
    double time_ms;
    std::uint64_t order;  ///< FIFO tie-break for determinism.
    EventKind kind;
    std::uint32_t slot;
    std::uint32_t hop;

    bool operator>(const Event& other) const {
      if (time_ms != other.time_ms) return time_ms > other.time_ms;
      return order > other.order;
    }
  };

  struct PendingFrame {
    std::uint32_t slot = 0;
    std::uint32_t hop = 0;
    can::CanId id = 0;  ///< slots_[slot].hop_ids[hop], the arbitration key.
    double release_ms = 0.0;
    FrameMeta meta;
  };

  struct Bus {
    std::string name;
    double bitrate_bps;
    /// Queued frames, at most one per CAN id, sorted by descending id:
    /// back() wins arbitration.
    std::vector<PendingFrame> ready;
    bool busy = false;
    PendingFrame in_flight;  ///< Valid while busy.
    double end_ms = 0.0;     ///< Completion time of in_flight.
    std::uint64_t end_order = 0;  ///< Its order stamp, taken in TryStart.
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
  bool trace_frames_;  ///< Per-frame events on: a trace and the flag.
  double gateway_delay_ms_ = kGatewayDelayMs;
  double now_ms_ = 0.0;
  std::uint64_t order_counter_ = 0;
  std::vector<Bus> buses_;
  std::vector<PeriodicSlot> slots_;
  std::vector<std::vector<SlotHopStats>> stats_;
  /// Frame time of each (slot, hop) on its segment, fixed at AddSlot.
  std::vector<std::vector<double>> frame_ms_;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> events_;
};

}  // namespace bistdse::net
