#include "can/mirroring.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace bistdse::can {

double MirroredTransferTimeMs(std::uint64_t data_bytes,
                              std::span<const CanMessage> functional) {
  double bytes_per_ms = 0.0;
  for (const CanMessage& c : functional) {
    bytes_per_ms += static_cast<double>(c.payload_bytes) / c.period_ms;
  }
  if (bytes_per_ms <= 0.0) return std::numeric_limits<double>::infinity();
  return static_cast<double>(data_bytes) / bytes_per_ms;
}

std::vector<CanMessage> MakeMirroredMessages(
    std::span<const CanMessage> functional, CanId id_offset) {
  std::vector<CanMessage> mirrored;
  mirrored.reserve(functional.size());
  for (const CanMessage& c : functional) {
    CanMessage m = c;
    m.id = c.id + id_offset;
    m.name = c.name + "'";
    mirrored.push_back(m);
  }
  return mirrored;
}

NonIntrusivenessReport CheckNonIntrusiveness(
    const CanBus& bus, std::span<const CanMessage> ecu_functional,
    std::span<const CanMessage> test_set) {
  CanBus modified(bus.Name() + "+test", bus.BitrateBps());
  std::vector<CanId> removed;
  for (const CanMessage& c : ecu_functional) removed.push_back(c.id);

  for (const CanMessage& m : bus.Messages()) {
    if (std::find(removed.begin(), removed.end(), m.id) == removed.end()) {
      modified.AddMessage(m);
    }
  }
  for (const CanMessage& m : test_set) modified.AddMessage(m);

  NonIntrusivenessReport report;
  report.non_intrusive = true;
  for (const CanMessage& m : bus.Messages()) {
    if (std::find(removed.begin(), removed.end(), m.id) != removed.end())
      continue;
    const auto before = bus.ResponseTime(m.id);
    const auto after = modified.ResponseTime(m.id);
    if (!before) continue;  // already broken without test traffic
    if (!after) {
      report.non_intrusive = false;
      report.newly_unschedulable.push_back(m.id);
      report.max_wcrt_increase_ms = std::numeric_limits<double>::infinity();
      continue;
    }
    const double delta = after->worst_case_ms - before->worst_case_ms;
    report.max_wcrt_increase_ms = std::max(report.max_wcrt_increase_ms, delta);
    if (delta > 1e-9) report.non_intrusive = false;
    if (before->schedulable && !after->schedulable) {
      report.newly_unschedulable.push_back(m.id);
      report.non_intrusive = false;
    }
  }
  return report;
}

BurstTransfer MakeBurstTransfer(std::uint64_t data_bytes, CanId id,
                                double bitrate_bps) {
  BurstTransfer burst;
  burst.frames = (data_bytes + 7) / 8;
  CanMessage m;
  m.name = "burst";
  m.id = id;
  m.payload_bytes = 8;
  burst.wire_time_ms =
      static_cast<double>(burst.frames) * m.FrameTimeMs(bitrate_bps);
  // Back-to-back frames are equivalent to a periodic message whose period
  // equals its own frame time: it grabs the bus whenever it is free.
  m.period_ms = m.FrameTimeMs(bitrate_bps);
  burst.message = m;
  return burst;
}

}  // namespace bistdse::can
