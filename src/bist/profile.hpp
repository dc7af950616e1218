// BIST profile: the per-session characterization used by the DSE (paper
// Table I). Each CUT offers a set of profiles trading fault coverage c(b),
// session runtime l(b) and encoded data size s(b).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace bistdse::bist {

struct BistProfile {
  std::uint32_t profile_number = 0;    ///< 1-based, as in Table I.
  std::uint64_t num_random_patterns = 0;
  double fault_coverage_percent = 0.0;   ///< c(b) [%] — stuck-at coverage.
  /// Optional extension metric: launch-on-capture transition coverage of the
  /// same session (0 when not measured). The paper's diagnosis flow "is not
  /// limited to" stuck-at; this quantifies the session under a second model.
  double transition_coverage_percent = 0.0;
  double runtime_ms = 0.0;               ///< l(b) [ms] — incl. state restore.
  std::uint64_t data_bytes = 0;          ///< s(b) [Bytes] — encoded det. + response data.

  // Provenance fields (zero for externally supplied tables).
  std::uint64_t num_deterministic_patterns = 0;
  std::uint64_t care_bits = 0;
};

/// The fail-data transfer is fixed per session (paper: ~638 bytes).
inline constexpr std::uint64_t kFailDataBytes = 638;

/// Flush and functional state restore after a session [ms]: a term of l(b)
/// and the last phase of a planned or executed session.
inline constexpr double kStateRestoreMs = 0.05;

/// A scaled data size, rounded down to whole bytes. Throws
/// std::invalid_argument naming `field` (the scale that produced it) when
/// `bytes` is negative, not a number or above 2^64-1, where the conversion
/// to an integer would be undefined.
std::uint64_t ScaledDataBytes(double bytes, std::string_view field);

/// Renders a profile set as an aligned text table with Table I's columns.
std::string FormatProfileTable(const std::vector<BistProfile>& profiles);

}  // namespace bistdse::bist
