// FNV-1a fingerprints of what the session executor computes: every field of
// every SessionExecution (times, both TransferStats, every WcrtSample) and
// every TraceEvent. Tests pin these against values recorded from the serial
// executor, so any change to the executed frames, fates or response times
// shows up as a hash mismatch.
#pragma once

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "net/campaign.hpp"
#include "net/session_executor.hpp"
#include "net/trace.hpp"

namespace bistdse::testing {

class ExecutionHasher {
 public:
  std::uint64_t Value() const { return h_; }

  void U64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffu;
      h_ *= 0x100000001b3ULL;
    }
  }
  void Real(double v) { U64(std::bit_cast<std::uint64_t>(v)); }
  void Flag(bool v) { U64(v ? 1 : 0); }
  void Str(const std::string& s) {
    U64(s.size());
    for (unsigned char c : s) {
      h_ ^= c;
      h_ *= 0x100000001b3ULL;
    }
  }

  void Transfer(const net::TransferStats& t) {
    U64(t.frames_sent);
    U64(t.delivered);
    U64(t.dropped);
    U64(t.corrupted);
    U64(t.reordered);
    U64(t.retransmissions);
    U64(t.fc_grants);
    U64(t.timeouts);
    U64(t.max_retry_burst);
  }

  void Session(const net::SessionExecution& s) {
    U64(s.plan.ecu);
    U64(s.plan.profile_index);
    Flag(s.plan.patterns_local);
    Flag(s.executed);
    Flag(s.completed);
    Str(s.failure);
    Real(s.analytical_download_ms);
    Real(s.analytical_upload_ms);
    Real(s.simulated_download_ms);
    Real(s.simulated_upload_ms);
    Real(s.simulated_total_ms);
    Transfer(s.download);
    Transfer(s.upload);
    U64(s.wcrt.size());
    for (const net::WcrtSample& w : s.wcrt) {
      U64(w.bus);
      Str(w.bus_name);
      U64(w.id);
      Real(w.observed_ms);
      Real(w.analytical_ms);
      Flag(w.mirrored);
    }
    Flag(s.wcrt_dominated);
  }

  void Report(const net::SessionExecutionReport& r) {
    U64(r.sessions.size());
    for (const net::SessionExecution& s : r.sessions) Session(s);
    Flag(r.all_completed);
    Flag(r.all_wcrt_dominated);
    Real(r.max_download_rel_error);
    U64(r.total_retransmissions);
    U64(r.total_frames_dropped);
    U64(r.total_frames_corrupted);
  }

  void Campaign(const net::CampaignReport& c) {
    U64(c.rounds.size());
    for (const net::CampaignRound& round : c.rounds) {
      Report(round.report);
      Flag(round.Passed());
      Str(round.failure);
    }
  }

  void Trace(const std::vector<net::TraceEvent>& events) {
    U64(events.size());
    for (const net::TraceEvent& e : events) {
      Real(e.time_ms);
      U64(static_cast<std::uint64_t>(e.kind));
      Str(e.bus);
      U64(e.id);
      U64(e.transfer);
      U64(e.seq);
      Str(e.note);
    }
  }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

}  // namespace bistdse::testing
