#include "net/trace.hpp"

#include <charconv>
#include <cstdio>
#include <ostream>

namespace bistdse::net {

const char* ToString(TraceEventKind kind) {
  switch (kind) {
    case TraceEventKind::PhaseStart: return "phase_start";
    case TraceEventKind::PhaseEnd: return "phase_end";
    case TraceEventKind::FrameReleased: return "frame_released";
    case TraceEventKind::FrameCompleted: return "frame_completed";
    case TraceEventKind::FrameDropped: return "frame_dropped";
    case TraceEventKind::FrameCorrupted: return "frame_corrupted";
    case TraceEventKind::FrameReordered: return "frame_reordered";
    case TraceEventKind::GatewayForward: return "gateway_forward";
    case TraceEventKind::TransferStarted: return "transfer_started";
    case TraceEventKind::TransferCompleted: return "transfer_completed";
    case TraceEventKind::TransferFailed: return "transfer_failed";
    case TraceEventKind::Retransmission: return "retransmission";
    case TraceEventKind::FlowControl: return "flow_control";
    case TraceEventKind::RequestAdmitted: return "request_admitted";
    case TraceEventKind::RequestRejected: return "request_rejected";
    case TraceEventKind::RequestAnswered: return "request_answered";
    case TraceEventKind::BatchDispatched: return "batch_dispatched";
    case TraceEventKind::DictReload: return "dict_reload";
  }
  return "unknown";
}

namespace {

/// A JSON string: quotes and backslashes escaped, control characters as
/// \u00XX, so a note never breaks the one-object-per-line format.
void WriteJsonString(std::ostream& out, const std::string& s) {
  out << '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out << '\\' << c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char esc[8];
      std::snprintf(esc, sizeof esc, "\\u%04x", static_cast<unsigned>(c));
      out << esc;
    } else {
      out << c;
    }
  }
  out << '"';
}

/// The shortest decimal that reads back as the same double.
void WriteNumber(std::ostream& out, double value) {
  char buf[32];
  out.write(buf, std::to_chars(buf, buf + sizeof buf, value).ptr - buf);
}

}  // namespace

void EventTrace::WriteJsonl(std::ostream& out) const {
  for (const TraceEvent& e : events_) {
    out << "{\"t_ms\":";
    WriteNumber(out, e.time_ms);
    out << ",\"kind\":\"" << ToString(e.kind) << '"';
    if (!e.bus.empty()) {
      out << ",\"bus\":";
      WriteJsonString(out, e.bus);
      out << ",\"id\":" << e.id;
    }
    if (e.transfer != 0) {
      out << ",\"transfer\":" << e.transfer << ",\"seq\":" << e.seq;
    }
    if (!e.note.empty()) {
      out << ",\"note\":";
      WriteJsonString(out, e.note);
    }
    out << "}\n";
  }
}

}  // namespace bistdse::net
