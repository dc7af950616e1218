// Shared helpers for the reproduction benches.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "util/parse.hpp"

namespace bistdse::bench {

/// Reads an unsigned environment override, e.g. BISTDSE_EVALS=100000. Unset
/// or empty means `fallback`; a malformed value exits 2 naming the variable.
inline std::uint64_t EnvU64(const char* name, std::uint64_t fallback) {
  const char* value = std::getenv(name);
  if (!value || !*value) return fallback;
  try {
    return util::ParseU64(name, value);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    std::exit(2);
  }
}

inline void PrintHeader(const char* artifact, const char* description) {
  std::printf("==============================================================\n");
  std::printf("%s\n%s\n", artifact, description);
  std::printf("==============================================================\n");
}

}  // namespace bistdse::bench
