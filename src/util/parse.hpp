// Strict parsing of numbers that arrive from outside the program: CLI flags
// and environment knobs. The whole text must be the number; anything else
// throws std::invalid_argument("invalid <field> '<text>'") so the caller can
// fail loudly and name the field instead of running with a garbage value.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <system_error>

namespace bistdse::util {

namespace detail {

[[noreturn]] inline void ThrowInvalid(std::string_view field,
                                      std::string_view text) {
  throw std::invalid_argument("invalid " + std::string(field) + " '" +
                              std::string(text) + "'");
}

}  // namespace detail

/// Decimal unsigned integer. Rejects empty text, any sign (so "-1" is not
/// read as 2^64-1), whitespace, trailing characters and values above
/// UINT64_MAX.
inline std::uint64_t ParseU64(std::string_view field, std::string_view text) {
  if (text.empty()) detail::ThrowInvalid(field, text);
  std::uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end) detail::ThrowInvalid(field, text);
  return value;
}

/// Decimal unsigned 32-bit integer: ParseU64's rules, and values above
/// UINT32_MAX are rejected instead of wrapping.
inline std::uint32_t ParseU32(std::string_view field, std::string_view text) {
  const std::uint64_t value = ParseU64(field, text);
  if (value > UINT32_MAX) detail::ThrowInvalid(field, text);
  return static_cast<std::uint32_t>(value);
}

/// Finite decimal real (negative values allowed). Rejects empty text,
/// whitespace, trailing characters, out-of-range magnitudes, inf and nan.
inline double ParseReal(std::string_view field, std::string_view text) {
  if (text.empty()) detail::ThrowInvalid(field, text);
  double value = 0.0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end || !std::isfinite(value)) {
    detail::ThrowInvalid(field, text);
  }
  return value;
}

}  // namespace bistdse::util
