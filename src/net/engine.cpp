#include "net/engine.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace bistdse::net {

namespace {

/// First queued frame whose id is not above `id` (the ready set is sorted
/// by descending id).
template <typename Frame>
auto LowerBound(std::vector<Frame>& ready, can::CanId id) {
  return std::lower_bound(
      ready.begin(), ready.end(), id,
      [](const Frame& frame, can::CanId key) { return frame.id > key; });
}

/// The single event queue's order: by time, then by order stamp.
bool Before(double time_a, std::uint64_t order_a, double time_b,
            std::uint64_t order_b) {
  return time_a < time_b || (time_a == time_b && order_a < order_b);
}

}  // namespace

BusIndex NetworkEngine::AddBus(std::string name, double bitrate_bps) {
  if (!std::isfinite(bitrate_bps) || !(bitrate_bps > 0.0)) {
    throw std::invalid_argument("bus bitrate must be finite and positive");
  }
  Bus bus;
  bus.name = std::move(name);
  bus.bitrate_bps = bitrate_bps;
  buses_.push_back(std::move(bus));
  return buses_.size() - 1;
}

std::size_t NetworkEngine::AddSlot(PeriodicSlot slot) {
  if (slot.path.empty() || slot.path.size() != slot.hop_ids.size()) {
    throw std::invalid_argument("slot path/hop_ids malformed");
  }
  for (BusIndex b : slot.path) {
    if (b >= buses_.size()) throw std::invalid_argument("unknown bus in path");
  }
  if (!std::isfinite(slot.message.period_ms) ||
      !(slot.message.period_ms > 0.0)) {
    throw std::invalid_argument("slot period must be finite and positive");
  }
  if (!std::isfinite(slot.first_release_ms) ||
      slot.first_release_ms < now_ms_) {
    throw std::invalid_argument(
        "slot first release must be finite and not before the engine's now");
  }
  if (slot.client != nullptr && slot.path.size() > 1) {
    // Forwarded frames re-enter with empty metadata; a segmented transfer
    // therefore spans exactly one segment (gateway <-> ECU), which is all
    // the mirrored download/upload paths of the paper need.
    throw std::invalid_argument("transport slots must be single-segment");
  }
  const auto index = static_cast<std::uint32_t>(slots_.size());
  stats_.emplace_back(slot.path.size());
  std::vector<double>& frame_ms = frame_ms_.emplace_back();
  for (BusIndex b : slot.path) {
    frame_ms.push_back(slot.message.FrameTimeMs(buses_[b].bitrate_bps));
  }
  const double first = slot.first_release_ms;
  slots_.push_back(std::move(slot));
  Push(first, EventKind::Release, index, 0);
  return index;
}

void NetworkEngine::Push(double time_ms, EventKind kind, std::uint32_t slot,
                         std::uint32_t hop) {
  events_.push(Event{time_ms, order_counter_++, kind, slot, hop});
}

double NetworkEngine::Run(double until_ms, const std::function<bool()>& stop) {
  for (;;) {
    // The next event is the smallest (time, order) among the heap top and
    // the busy buses' completions.
    const Bus* first = nullptr;
    BusIndex first_index = 0;
    for (BusIndex b = 0; b < buses_.size(); ++b) {
      const Bus& bus = buses_[b];
      if (bus.busy && (first == nullptr || Before(bus.end_ms, bus.end_order,
                                                  first->end_ms,
                                                  first->end_order))) {
        first = &bus;
        first_index = b;
      }
    }
    if (!events_.empty() &&
        (first == nullptr || Before(events_.top().time_ms, events_.top().order,
                                    first->end_ms, first->end_order))) {
      const Event e = events_.top();
      if (e.time_ms > until_ms) break;
      events_.pop();
      now_ms_ = e.time_ms;
      if (e.kind == EventKind::Release) {
        HandleRelease(e.slot);
      } else {
        Enqueue(e.slot, e.hop, FrameMeta{}, now_ms_);
      }
    } else {
      if (first == nullptr || first->end_ms > until_ms) break;
      now_ms_ = first->end_ms;
      HandleCompletion(first_index);
      if (stop && stop()) return now_ms_;
    }
  }
  now_ms_ = std::max(now_ms_, until_ms);
  return now_ms_;
}

void NetworkEngine::HandleRelease(std::uint32_t slot_index) {
  const PeriodicSlot& slot = slots_[slot_index];
  Push(now_ms_ + slot.message.period_ms, EventKind::Release, slot_index, 0);

  FrameMeta meta;
  if (slot.client != nullptr) {
    // A still-queued previous instance means the slot's last frame has not
    // even started — do not offer the client a second in-flight frame on the
    // same id (the controller buffer holds one frame per object).
    std::vector<PendingFrame>& ready = buses_[slot.path.front()].ready;
    const can::CanId id = slot.hop_ids.front();
    const auto queued = LowerBound(ready, id);
    if (queued != ready.end() && queued->id == id) return;
    if (!slot.client->FillFrame(now_ms_, slot.message.payload_bytes, meta)) {
      return;  // transport has nothing to send: the mirrored slot idles
    }
  }
  Enqueue(slot_index, 0, meta, now_ms_);
}

void NetworkEngine::Enqueue(std::uint32_t slot_index, std::uint32_t hop,
                            const FrameMeta& meta, double release_ms) {
  const PeriodicSlot& slot = slots_[slot_index];
  const BusIndex bus_index = slot.path[hop];
  const can::CanId id = slot.hop_ids[hop];
  std::vector<PendingFrame>& ready = buses_[bus_index].ready;
  const PendingFrame frame{slot_index, hop, id, release_ms, meta};
  // Overload semantics of a CAN controller buffer: a new instance replaces
  // a previous one still queued on the same id.
  const auto at = LowerBound(ready, id);
  if (at != ready.end() && at->id == id) {
    *at = frame;
  } else {
    ready.insert(at, frame);
  }
  if (trace_frames_) {
    TraceFrame(TraceEventKind::FrameReleased, bus_index, id, meta);
  }
  TryStart(bus_index);
}

void NetworkEngine::TryStart(BusIndex bus_index) {
  Bus& bus = buses_[bus_index];
  if (bus.busy || bus.ready.empty()) return;
  bus.in_flight = bus.ready.back();
  bus.ready.pop_back();
  bus.busy = true;
  const double frame_time = frame_ms_[bus.in_flight.slot][bus.in_flight.hop];
  bus.busy_ms += frame_time;
  bus.end_ms = now_ms_ + frame_time;
  bus.end_order = order_counter_++;
}

void NetworkEngine::HandleCompletion(BusIndex bus_index) {
  Bus& bus = buses_[bus_index];
  const PendingFrame frame = bus.in_flight;
  bus.busy = false;

  const PeriodicSlot& slot = slots_[frame.slot];
  const can::CanId id = frame.id;
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
      if (trace_frames_) {
        TraceFrame(TraceEventKind::FrameCompleted, bus_index, id, frame.meta);
      }
      if (frame.hop + 1 < slot.path.size()) {
        // Store-and-forward: the gateway re-releases the frame on the next
        // segment after its processing delay.
        Push(now_ms_ + gateway_delay_ms_, EventKind::HopArrival, frame.slot,
             frame.hop + 1);
        if (trace_frames_) {
          TraceFrame(TraceEventKind::GatewayForward, slot.path[frame.hop + 1],
                     slot.hop_ids[frame.hop + 1], frame.meta);
        }
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

void NetworkEngine::TraceFrame(TraceEventKind kind, BusIndex bus,
                               can::CanId id, const FrameMeta& meta) {
  trace_->Record({now_ms_, kind, buses_[bus].name, id, meta.transfer,
                  meta.seq, ""});
}

}  // namespace bistdse::net
