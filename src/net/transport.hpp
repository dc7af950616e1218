// Segmented transport over mirrored CAN slots (ISO-TP-style).
//
// Pattern downloads (gateway -> ECU) and fail-data uploads (ECU -> b^R) move
// far more bytes than one CAN frame carries, so they are segmented: a first
// frame announces the total length, consecutive frames carry the data with a
// rolling sequence number, and the receiver grants the next block of
// consecutive frames with a flow-control message after every `block_size`
// frames. Lost or corrupted frames are retransmitted at the next slot
// firing, with exponential slot-skipping backoff and a bounded per-chunk
// retry budget — the error handling a lossy automotive bus demands.
//
// Framing metadata (length, sequence, flow control) rides in the identifier
// space of the mirrored slot set and the otherwise-idle diagnostic response
// slot, so the full payload of every mirrored frame remains available to
// test data and the transfer-rate analysis of Eq. (1) applies unchanged.
#pragma once

#include <cstdint>
#include <deque>
#include <limits>
#include <map>
#include <string>

#include "net/engine.hpp"
#include "net/trace.hpp"

namespace bistdse::net {

struct TransportConfig {
  /// Consecutive frames per flow-control block.
  std::uint32_t block_size = 16;
  /// Latency of the receiver's flow-control grant after a block completes.
  double fc_delay_ms = 0.1;
  /// Retransmissions allowed per chunk before the transfer fails.
  std::uint32_t max_retries = 8;
  /// Backoff cap: a chunk's k-th retransmission waits min(2^(k-1) - 1,
  /// max_backoff_slots) slot firings before re-entering the schedule.
  std::uint32_t max_backoff_slots = 8;
  /// Per-transfer deadline measured from Begin(); infinite by default.
  double timeout_ms = std::numeric_limits<double>::infinity();
};

struct TransferStats {
  std::uint64_t frames_sent = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;
  std::uint64_t corrupted = 0;
  std::uint64_t reordered = 0;  ///< Delivered out of sequence (reassembled).
  std::uint64_t retransmissions = 0;
  std::uint64_t fc_grants = 0;
  std::uint64_t timeouts = 0;   ///< Per-transfer deadline expiries (0 or 1).
  std::uint32_t max_retry_burst = 0;  ///< Worst consecutive failures of one chunk.
};

/// "retries=R dropped=D corrupted=C reordered=O timeouts=T" — the
/// per-transfer attribution suffix appended to transfer_completed /
/// transfer_failed trace notes so every server-side upload failure is
/// explainable from the JSONL trace alone.
std::string FormatTransferAttribution(const TransferStats& stats);

/// One segmented transfer riding a set of carrier slots. Attach it (directly
/// or through a SlotClientMux) as the SlotClient of every mirrored slot; the
/// engine then drains it at exactly the certified slot rate.
class SegmentedTransfer : public SlotClient {
 public:
  SegmentedTransfer(std::uint64_t transfer_id, std::string name,
                    std::uint64_t total_bytes, const TransportConfig& config,
                    EventTrace* trace = nullptr);

  /// Arms the transfer at simulated time `now_ms`. A zero-byte transfer
  /// completes immediately.
  void Begin(double now_ms);

  bool Done() const { return bytes_acked_ >= total_bytes_; }
  bool Failed() const { return failed_; }
  bool Finished() const { return Done() || Failed(); }

  double StartMs() const { return start_ms_; }
  double CompleteMs() const { return complete_ms_; }
  double ElapsedMs() const { return complete_ms_ - start_ms_; }
  std::uint64_t TotalBytes() const { return total_bytes_; }
  const TransferStats& Stats() const { return stats_; }

  // SlotClient:
  bool FillFrame(double now_ms, std::uint32_t payload_capacity,
                 FrameMeta& meta) override;
  void OnOutcome(double now_ms, const FrameMeta& meta,
                 FrameFate fate) override;

 private:
  struct Chunk {
    std::uint64_t bytes = 0;
    std::uint32_t retries = 0;
  };

  void Fail(double now_ms, const std::string& reason);

  std::uint64_t id_;
  std::string name_;
  std::uint64_t total_bytes_;
  TransportConfig config_;
  EventTrace* trace_;

  bool active_ = false;
  bool failed_ = false;
  double start_ms_ = 0.0;
  double complete_ms_ = 0.0;
  std::uint64_t bytes_acked_ = 0;
  std::uint64_t bytes_covered_ = 0;  ///< acked + in flight + awaiting retry.
  std::uint32_t next_seq_ = 0;
  std::uint32_t frames_since_grant_ = 0;
  bool awaiting_fc_ = false;
  double blocked_until_ms_ = 0.0;
  std::uint32_t skip_slots_ = 0;
  std::deque<Chunk> retrans_queue_;
  std::map<std::uint32_t, Chunk> in_flight_;  ///< By sequence number.
  TransferStats stats_;
};

/// Routes the carrier slots to whichever transfer is active in the current
/// session phase (download, then fail-data upload); carriers idle while
/// `active` is null (e.g. during the BIST run itself).
class SlotClientMux : public SlotClient {
 public:
  SlotClient* active = nullptr;

  bool FillFrame(double now_ms, std::uint32_t payload_capacity,
                 FrameMeta& meta) override {
    return active != nullptr && active->FillFrame(now_ms, payload_capacity, meta);
  }
  void OnOutcome(double now_ms, const FrameMeta& meta,
                 FrameFate fate) override {
    if (active != nullptr) active->OnOutcome(now_ms, meta, fate);
  }
};

}  // namespace bistdse::net
