#include "net/transport.hpp"

#include <algorithm>

namespace bistdse::net {

std::string FormatTransferAttribution(const TransferStats& stats) {
  return "retries=" + std::to_string(stats.retransmissions) +
         " dropped=" + std::to_string(stats.dropped) +
         " corrupted=" + std::to_string(stats.corrupted) +
         " reordered=" + std::to_string(stats.reordered) +
         " timeouts=" + std::to_string(stats.timeouts);
}

SegmentedTransfer::SegmentedTransfer(std::uint64_t transfer_id,
                                     std::string name,
                                     std::uint64_t total_bytes,
                                     const TransportConfig& config,
                                     EventTrace* trace)
    : id_(transfer_id),
      name_(std::move(name)),
      total_bytes_(total_bytes),
      config_(config),
      trace_(trace) {}

void SegmentedTransfer::Begin(double now_ms) {
  active_ = true;
  start_ms_ = now_ms;
  complete_ms_ = now_ms;
  if (trace_ != nullptr) {
    trace_->Record({now_ms, TraceEventKind::TransferStarted, "", 0, id_, 0,
                    name_ + " (" + std::to_string(total_bytes_) + " B)"});
    if (Done()) {
      trace_->Record(
          {now_ms, TraceEventKind::TransferCompleted, "", 0, id_, 0, name_});
    }
  }
}

void SegmentedTransfer::Fail(double now_ms, const std::string& reason) {
  failed_ = true;
  complete_ms_ = now_ms;
  if (trace_ != nullptr) {
    trace_->Record({now_ms, TraceEventKind::TransferFailed, "", 0, id_, 0,
                    name_ + ": " + reason + " (" +
                        FormatTransferAttribution(stats_) + ")"});
  }
}

bool SegmentedTransfer::FillFrame(double now_ms,
                                  std::uint32_t payload_capacity,
                                  FrameMeta& meta) {
  if (!active_ || Finished()) return false;
  if (now_ms - start_ms_ > config_.timeout_ms) {
    ++stats_.timeouts;
    Fail(now_ms, "transfer timeout");
    return false;
  }
  if (awaiting_fc_ || now_ms < blocked_until_ms_) return false;
  if (skip_slots_ > 0) {
    --skip_slots_;  // backoff: deliberately let this firing pass unused
    return false;
  }
  // Framing metadata rides out of band: every payload byte is goodput.
  const std::uint32_t goodput = payload_capacity;
  if (goodput == 0) return false;

  Chunk chunk;
  if (!retrans_queue_.empty()) {
    chunk = retrans_queue_.front();
    retrans_queue_.pop_front();
    if (chunk.bytes > goodput) {
      // Retransmitting over a smaller slot: ship what fits, requeue the rest
      // as a fresh chunk.
      retrans_queue_.push_front({chunk.bytes - goodput, chunk.retries});
      chunk.bytes = goodput;
    }
    ++stats_.retransmissions;
    if (trace_ != nullptr) {
      trace_->Record({now_ms, TraceEventKind::Retransmission, "", 0, id_,
                      next_seq_,
                      "retry " + std::to_string(chunk.retries) + ", " +
                          std::to_string(chunk.bytes) + " B"});
    }
  } else {
    if (bytes_covered_ >= total_bytes_) return false;  // all data in flight
    chunk.bytes = std::min<std::uint64_t>(goodput,
                                          total_bytes_ - bytes_covered_);
    bytes_covered_ += chunk.bytes;
  }

  meta.transfer = id_;
  meta.seq = next_seq_++;
  meta.data_bytes = static_cast<std::uint32_t>(chunk.bytes);
  meta.first_frame = stats_.frames_sent == 0;
  in_flight_[meta.seq] = chunk;
  ++stats_.frames_sent;
  if (++frames_since_grant_ >= config_.block_size) awaiting_fc_ = true;
  return true;
}

void SegmentedTransfer::OnOutcome(double now_ms, const FrameMeta& meta,
                                  FrameFate fate) {
  const auto it = in_flight_.find(meta.seq);
  if (it == in_flight_.end()) return;  // not ours (phase already switched)
  Chunk chunk = it->second;
  in_flight_.erase(it);

  switch (fate) {
    case FrameFate::Reordered:
      // Arrived intact but out of sequence: the receiver reassembles by
      // sequence number, so the chunk is acknowledged like a delivery.
      ++stats_.reordered;
      [[fallthrough]];
    case FrameFate::Delivered:
      ++stats_.delivered;
      bytes_acked_ += chunk.bytes;
      if (Done()) {
        complete_ms_ = now_ms;
        if (trace_ != nullptr) {
          trace_->Record({now_ms, TraceEventKind::TransferCompleted, "", 0,
                          id_, meta.seq,
                          name_ + " (" + FormatTransferAttribution(stats_) +
                              ")"});
        }
      }
      break;
    case FrameFate::Dropped:
    case FrameFate::Corrupted:
      fate == FrameFate::Dropped ? ++stats_.dropped : ++stats_.corrupted;
      ++chunk.retries;
      stats_.max_retry_burst = std::max(stats_.max_retry_burst, chunk.retries);
      if (chunk.retries > config_.max_retries) {
        Fail(now_ms, "chunk exceeded retry budget");
        break;
      }
      retrans_queue_.push_back(chunk);
      skip_slots_ = std::min(
          config_.max_backoff_slots,
          (1u << std::min(chunk.retries - 1, 5u)) - 1u);
      break;
  }

  if (awaiting_fc_ && in_flight_.empty() && !Finished()) {
    // Receiver acknowledges the block and grants the next one.
    awaiting_fc_ = false;
    frames_since_grant_ = 0;
    blocked_until_ms_ = now_ms + config_.fc_delay_ms;
    ++stats_.fc_grants;
    if (trace_ != nullptr) {
      trace_->Record({now_ms, TraceEventKind::FlowControl, "", 0, id_,
                      meta.seq, "grant next block"});
    }
  }
}

}  // namespace bistdse::net
