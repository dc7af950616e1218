#include "can/bus.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace bistdse::can {

void CanBus::AddMessage(const CanMessage& message) {
  if (message.payload_bytes > 8)
    throw std::invalid_argument("CAN payload exceeds 8 bytes");
  if (message.period_ms <= 0)
    throw std::invalid_argument("CAN message period must be positive");
  for (const CanMessage& m : messages_) {
    if (m.id == message.id)
      throw std::invalid_argument("duplicate CAN id " + std::to_string(m.id));
  }
  messages_.push_back(message);
  std::sort(messages_.begin(), messages_.end(),
            [](const CanMessage& a, const CanMessage& b) { return a.id < b.id; });
}

std::optional<ResponseTimeResult> CanBus::ResponseTime(CanId id) const {
  const auto it = std::find_if(messages_.begin(), messages_.end(),
                               [&](const CanMessage& m) { return m.id == id; });
  if (it == messages_.end()) return std::nullopt;
  const CanMessage& msg = *it;
  const double c = msg.FrameTimeMs(bitrate_bps_);
  const double tau_bit = 1e3 / bitrate_bps_;  // one bit time in ms

  // Blocking: longest lower-priority frame already on the wire.
  double blocking = 0.0;
  for (const CanMessage& m : messages_) {
    if (m.id > id) blocking = std::max(blocking, m.FrameTimeMs(bitrate_bps_));
  }

  // Fixpoint for the queuing delay w:
  //   w = B + sum_{k in hp} ceil((w + J_k + tau_bit) / T_k) * C_k
  double w = blocking;
  for (int iter = 0; iter < 10000; ++iter) {
    double next = blocking;
    for (const CanMessage& m : messages_) {
      if (m.id >= id) continue;
      next += std::ceil((w + m.jitter_ms + tau_bit) / m.period_ms) *
              m.FrameTimeMs(bitrate_bps_);
    }
    if (next == w) {
      ResponseTimeResult result;
      result.worst_case_ms = msg.jitter_ms + w + c;
      result.schedulable = result.worst_case_ms <= msg.period_ms;
      return result;
    }
    if (next > 10.0 * msg.period_ms) return std::nullopt;  // diverging
    w = next;
  }
  return std::nullopt;
}

std::vector<std::pair<CanId, std::optional<ResponseTimeResult>>>
CanBus::AllResponseTimes() const {
  std::vector<std::pair<CanId, std::optional<ResponseTimeResult>>> out;
  out.reserve(messages_.size());
  for (const CanMessage& m : messages_) out.emplace_back(m.id, ResponseTime(m.id));
  return out;
}

}  // namespace bistdse::can
