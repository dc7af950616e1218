// Non-intrusive test-data transfer by message mirroring (paper §III-B).
//
// When an ECU's functional applications are shut off, its certified share of
// the bus schedule is idle. The BIST test patterns are transmitted in
// messages c' that *mirror* the ECU's functional messages c — same payload
// size, same period, same relative priority, different CAN id — so every
// other subscriber observes an unchanged bus. Eq. (1) of the paper gives the
// resulting transfer time:
//
//     q(b^T) = s(b^D) / sum_{c in I} s(c)/p(c)
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "can/bus.hpp"

namespace bistdse::can {

/// Eq. (1): time [ms] to move `data_bytes` of encoded test data over the
/// mirrored copies of `functional` (payload bytes / period ms each).
/// Returns +inf when the ECU sends no functional messages (no mirrored
/// bandwidth exists).
double MirroredTransferTimeMs(std::uint64_t data_bytes,
                              std::span<const CanMessage> functional);

/// Builds the mirrored message set: identical size/period/jitter, CAN id
/// shifted by `id_offset` (caller picks an offset that keeps relative
/// priority and avoids collisions; see CheckNonIntrusiveness).
std::vector<CanMessage> MakeMirroredMessages(
    std::span<const CanMessage> functional, CanId id_offset);

struct NonIntrusivenessReport {
  bool non_intrusive = false;
  /// Max increase in worst-case response time over all messages that do not
  /// belong to the swapped ECU (ms). 0 for a correct mirror.
  double max_wcrt_increase_ms = 0.0;
  /// Messages that became unschedulable by the change.
  std::vector<CanId> newly_unschedulable;
};

/// Verifies that replacing `ecu_functional` (subset of `bus`) by `test_set`
/// leaves the worst-case response time of every *other* message unchanged
/// (mirroring) or reports by how much it degrades (burst/naive transfer).
NonIntrusivenessReport CheckNonIntrusiveness(
    const CanBus& bus, std::span<const CanMessage> ecu_functional,
    std::span<const CanMessage> test_set);

/// The naive alternative for the ablation study: ship `data_bytes` as
/// back-to-back max-payload frames at the given id (lowest priority
/// recommended). Returns the periodic message that models the burst as
/// sustained traffic plus the raw wire time of the burst.
struct BurstTransfer {
  CanMessage message;      ///< Saturating periodic model of the burst.
  double wire_time_ms = 0; ///< Raw transmission time of all frames.
  std::uint64_t frames = 0;
};
BurstTransfer MakeBurstTransfer(std::uint64_t data_bytes, CanId id,
                                double bitrate_bps);

}  // namespace bistdse::can
