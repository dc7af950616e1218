// Diagnosis-related design objectives (paper §III-D): test quality (Eq. 4),
// shut-off time (Eq. 5 with the mirrored-transfer time of Eq. 1), and
// monetary costs with gateway pattern-memory sharing.
#pragma once

#include <cstdint>

#include "model/implementation.hpp"
#include "model/specification.hpp"
#include "moea/dominance.hpp"

namespace bistdse::dse {

struct Objectives {
  /// Eq. 4 [%]: average stuck-at coverage over allocated ECUs (maximize).
  double test_quality_percent = 0.0;
  /// Eq.-4 analog over the profiles' transition (TDF) coverage — the second
  /// fault model the paper's flow supports. 0 unless profiles carry TDF
  /// numbers.
  double transition_quality_percent = 0.0;
  /// Eq. 5 [ms]: max extra awake time over all BIST sessions (minimize).
  double shutoff_time_ms = 0.0;
  /// Allocated hardware + pattern memory (minimize). Virtual cost metric of
  /// the paper's footnote 1.
  double monetary_cost = 0.0;

  // Fig. 6 breakdowns:
  std::uint64_t gateway_memory_bytes = 0;      ///< Shared, deduplicated.
  std::uint64_t distributed_memory_bytes = 0;  ///< Local per-ECU copies.
  /// Cost share attributable to pattern memory — the "additional costs"
  /// of diagnosis relative to the same design without structural tests.
  double pattern_memory_cost = 0.0;
  std::uint32_t ecus_with_bist = 0;
  std::uint32_t ecus_allocated = 0;
  /// Selected remote-storage programs whose ECU sends no functional payload:
  /// Eq. (1) has no mirrored bandwidth to ride, so the session never
  /// completes. Such implementations carry an infinite shut-off time (they
  /// are dominated away) and this counter makes the rejection explicit.
  std::uint32_t sessions_without_bandwidth = 0;

  /// MOEA view: all minimized (quality negated). With
  /// `include_transition_quality` the vector has four dimensions (the
  /// dual-fault-model exploration).
  moea::ObjectiveVector ToMinimizationVector(
      bool include_transition_quality = false) const {
    if (include_transition_quality) {
      return {-test_quality_percent, -transition_quality_percent,
              shutoff_time_ms, monetary_cost};
    }
    return {-test_quality_percent, shutoff_time_ms, monetary_cost};
  }
};

struct EvaluationOptions {
  /// Model the mirrored download over CAN FD: each functional slot carries a
  /// 64-byte FD payload instead of the classic frame's payload (the slot
  /// timing is unchanged — the FD frame is *shorter* on the wire thanks to
  /// its fast data phase, so the certified schedule still holds).
  bool use_can_fd = false;
};

/// Evaluates every objective of a feasible implementation: test quality
/// (Eq. 4) with its transition-fault analog, shut-off time (Eq. 5 over the
/// Eq.-1 mirrored transfers) and monetary cost. Gateway-stored encoded
/// pattern sets are deduplicated per (CUT type, profile index) — identical
/// silicon shares one gateway copy (paper §III-D).
Objectives EvaluateImplementation(const model::Specification& spec,
                                  const model::BistAugmentation& augmentation,
                                  const model::Implementation& impl,
                                  const EvaluationOptions& options = {});

}  // namespace bistdse::dse
