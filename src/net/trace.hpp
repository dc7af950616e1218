// Machine-readable event trace of the vehicle-network executor.
//
// Every operationally relevant event — frame completions, drops,
// retransmissions, flow-control grants, phase boundaries — is recorded with
// its simulated timestamp so that a session execution can be replayed,
// audited, or diffed against the analytical timing model. The trace is the
// artifact the acceptance tests inspect: each transport retransmission under
// injected frame loss must appear here.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "can/message.hpp"

namespace bistdse::net {

enum class TraceEventKind {
  PhaseStart,
  PhaseEnd,
  FrameReleased,
  FrameCompleted,
  FrameDropped,
  FrameCorrupted,
  FrameReordered,
  GatewayForward,
  TransferStarted,
  TransferCompleted,
  TransferFailed,
  Retransmission,
  FlowControl,
  // Diagnosis-server request lifecycle (serve::DiagnosisServer).
  RequestAdmitted,
  RequestRejected,
  RequestAnswered,
  BatchDispatched,
  DictReload,
};

const char* ToString(TraceEventKind kind);

struct TraceEvent {
  double time_ms = 0.0;
  TraceEventKind kind = TraceEventKind::FrameCompleted;
  std::string bus;                ///< Bus segment name ("" for phase events).
  can::CanId id = 0;              ///< CAN id on that segment.
  std::uint64_t transfer = 0;     ///< Transport transfer id (0 = functional).
  std::uint32_t seq = 0;          ///< Transport sequence number.
  std::string note;               ///< Free-form context (phase name, reason).
};

/// Append-only event log. Frame-level events are recorded only when the
/// producer runs with frame tracing enabled; transport- and phase-level
/// events are always recorded, so the trace stays bounded even for
/// minutes-long simulated downloads.
class EventTrace {
 public:
  void Record(TraceEvent event) { events_.push_back(std::move(event)); }

  const std::vector<TraceEvent>& Events() const { return events_; }
  void Clear() { events_.clear(); }

  /// One JSON object per line (JSONL), stable key order — greppable and
  /// loadable with any JSON parser.
  void WriteJsonl(std::ostream& out) const;

 private:
  std::vector<TraceEvent> events_;
};

}  // namespace bistdse::net
