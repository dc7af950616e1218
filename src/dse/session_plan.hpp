// Session planning: turns a selected BIST program of an implementation into
// the concrete execution timeline an ECU integrator deploys — pattern
// download over mirrored slots (Eq. 1), test application l(b), fail-data
// upload to the gateway collector b^R, and functional state restore.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bist/profile.hpp"
#include "bist/stumps.hpp"
#include "model/implementation.hpp"
#include "model/specification.hpp"

namespace bistdse::dse {

struct SessionPhase {
  std::string name;
  double start_ms = 0.0;
  double duration_ms = 0.0;
};

struct SessionPlan {
  model::ResourceId ecu = model::kInvalidId;
  std::uint32_t profile_index = 0;
  bool patterns_local = false;
  /// False when the session needs a mirrored transfer but the ECU sends no
  /// functional messages: Eq. (1) diverges (+inf), so the program is
  /// explicitly rejected rather than planned with infinite phases.
  bool feasible = true;

  std::vector<SessionPhase> phases;  ///< Contiguous, in execution order.
  double total_ms = 0.0;

  /// CAN frames of the mirrored download (0 for local storage) and of the
  /// fail-data upload.
  std::uint64_t download_frames = 0;
  std::uint64_t fail_data_frames = 0;
};

/// Plans the session of every selected BIST program in `impl`.
std::vector<SessionPlan> PlanSessions(
    const model::Specification& spec,
    const model::BistAugmentation& augmentation,
    const model::Implementation& impl);

std::string FormatSessionPlan(const model::Specification& spec,
                              const SessionPlan& plan);

}  // namespace bistdse::dse
