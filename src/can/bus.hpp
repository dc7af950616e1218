// CAN bus with fixed-priority non-preemptive response-time analysis.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "can/message.hpp"

namespace bistdse::can {

struct ResponseTimeResult {
  double worst_case_ms = 0.0;
  bool schedulable = false;  ///< R <= period (deadline = period).
};

class CanBus {
 public:
  explicit CanBus(std::string name, double bitrate_bps = 500e3)
      : name_(std::move(name)), bitrate_bps_(bitrate_bps) {}

  /// Adds a message. Throws std::invalid_argument on duplicate CAN id or
  /// payload > 8 bytes.
  void AddMessage(const CanMessage& message);

  const std::vector<CanMessage>& Messages() const { return messages_; }
  const std::string& Name() const { return name_; }
  double BitrateBps() const { return bitrate_bps_; }

  /// Worst-case response time of message `id` (blocking + higher-priority
  /// interference, iterated to fixpoint). Returns nullopt for unknown ids or
  /// when the busy period diverges (utilization >= 1 at that priority level).
  std::optional<ResponseTimeResult> ResponseTime(CanId id) const;

  /// Response times of all messages; nullopt entries mean divergence.
  std::vector<std::pair<CanId, std::optional<ResponseTimeResult>>>
  AllResponseTimes() const;

 private:
  std::string name_;
  double bitrate_bps_;
  std::vector<CanMessage> messages_;  // kept sorted by id (priority order)
};

}  // namespace bistdse::can
