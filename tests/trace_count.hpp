// Event counts of a net::EventTrace, for the tests that check what a run
// traced.
#pragma once

#include <algorithm>
#include <cstddef>

#include "net/trace.hpp"

namespace bistdse::testing {

/// Number of events of `kind` in `trace`.
inline std::size_t CountKind(const net::EventTrace& trace,
                             net::TraceEventKind kind) {
  return static_cast<std::size_t>(std::count_if(
      trace.Events().begin(), trace.Events().end(),
      [&](const net::TraceEvent& e) { return e.kind == kind; }));
}

}  // namespace bistdse::testing
