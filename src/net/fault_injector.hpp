// Deterministic frame-level fault injection for the network executor.
//
// Automotive diagnosis traffic must survive lossy buses (EMI bursts, error
// frames, marginal transceivers). The injector decides the fate of every
// completed frame — delivered, dropped, or corrupted — from an explicitly
// seeded SplitMix64 stream, so a session execution under 1 % frame loss is
// reproducible bit-for-bit and the transport retry path can be asserted in
// tests rather than hoped for.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

#include "util/rng.hpp"

namespace bistdse::net {

enum class FrameFate {
  Delivered,
  Dropped,     ///< Frame destroyed on the wire (CRC error + no retransmit).
  Corrupted,   ///< Frame arrives but fails the receiver's integrity check.
  Reordered,   ///< Frame arrives intact but out of sequence; the receiver's
               ///< reassembly buffer absorbs it (ISO-TP sequence numbers).
};

struct FaultInjectorConfig {
  double drop_rate = 0.0;     ///< Probability a completed frame is lost.
  double corrupt_rate = 0.0;  ///< Probability it arrives corrupted instead.
  double reorder_rate = 0.0;  ///< Probability it arrives out of sequence.
  std::uint64_t seed = 1;
  /// When false, only transport frames (transfer != 0) are judged; the
  /// functional background traffic stays lossless.
  bool affect_functional = true;

  /// Throws std::invalid_argument naming the field unless each rate is in
  /// [0, 1] and the three sum to at most 1: a frame has one fate.
  void Validate() const {
    const auto check = [](double rate, const char* field) {
      // Written so that NaN fails too.
      if (!(rate >= 0.0 && rate <= 1.0)) {
        throw std::invalid_argument(std::string(field) +
                                    " must be in [0, 1] (got " +
                                    std::to_string(rate) + ")");
      }
    };
    check(drop_rate, "drop_rate");
    check(corrupt_rate, "corrupt_rate");
    check(reorder_rate, "reorder_rate");
    const double sum = drop_rate + corrupt_rate + reorder_rate;
    if (sum > 1.0) {
      throw std::invalid_argument(
          "drop_rate + corrupt_rate + reorder_rate must be <= 1 (got " +
          std::to_string(sum) + ")");
    }
  }
};

class FaultInjector {
 public:
  /// Throws std::invalid_argument on rates that are not probabilities
  /// (FaultInjectorConfig::Validate).
  explicit FaultInjector(const FaultInjectorConfig& config = {})
      : config_(config), rng_(config.seed) {
    config_.Validate();
  }

  /// Decides the fate of one completed frame. `is_transport` marks frames
  /// that carry a segmented transfer (as opposed to functional filler).
  FrameFate Judge(bool is_transport) {
    if (!is_transport && !config_.affect_functional) return FrameFate::Delivered;
    const double u = rng_.UnitReal();
    if (u < config_.drop_rate) {
      ++dropped_;
      return FrameFate::Dropped;
    }
    if (u < config_.drop_rate + config_.corrupt_rate) {
      ++corrupted_;
      return FrameFate::Corrupted;
    }
    if (u < config_.drop_rate + config_.corrupt_rate + config_.reorder_rate) {
      ++reordered_;
      return FrameFate::Reordered;
    }
    return FrameFate::Delivered;
  }

  const FaultInjectorConfig& Config() const { return config_; }
  std::uint64_t TotalDropped() const { return dropped_; }
  std::uint64_t TotalCorrupted() const { return corrupted_; }
  std::uint64_t TotalReordered() const { return reordered_; }

 private:
  FaultInjectorConfig config_;
  util::SplitMix64 rng_;
  std::uint64_t dropped_ = 0;
  std::uint64_t corrupted_ = 0;
  std::uint64_t reordered_ = 0;
};

}  // namespace bistdse::net
