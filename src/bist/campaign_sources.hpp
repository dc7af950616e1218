// sim::PatternSource adapters for the BIST pattern streams: the session's
// PRPG (LFSR, optionally through the STUMPS phase shifter) and the full
// session stream (pseudo-random phase followed by the expansion of the
// reseeding-encoded deterministic seeds). Every campaign that replays a
// session builds its source from the same StumpsConfig, so replays stay
// consistent by construction — same guarantee as bist::PatternSource, now
// at the campaign-kernel boundary.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "bist/pattern_source.hpp"
#include "bist/reseeding.hpp"
#include "sim/campaign.hpp"

namespace bistdse::bist {

/// The endless pseudo-random phase: campaign length is bounded by
/// RunOptions::max_patterns (or a sink stopping the run), never by the
/// source.
class PrpgSource final : public sim::PatternSource {
 public:
  PrpgSource(const StumpsConfig& config, std::size_t width)
      : prpg_(config, width) {}

  std::size_t Fill(std::size_t max_patterns,
                   std::vector<sim::BitPattern>& out) override {
    for (std::size_t k = 0; k < max_patterns; ++k) out.push_back(prpg_.Next());
    return max_patterns;
  }

 private:
  bist::PatternSource prpg_;
};

/// The complete session stream: `num_random` PRPs, then the deterministic
/// top-up patterns expanded from their reseeding seeds, then exhaustion.
/// The expander and the seed span must outlive the source.
class SessionStreamSource final : public sim::PatternSource {
 public:
  SessionStreamSource(const StumpsConfig& config, std::size_t width,
                      const ReseedingEncoder& expander,
                      std::uint64_t num_random,
                      std::span<const EncodedPattern> deterministic)
      : prpg_(config, width),
        expander_(expander),
        num_random_(num_random),
        deterministic_(deterministic) {}

  std::size_t Fill(std::size_t max_patterns,
                   std::vector<sim::BitPattern>& out) override {
    std::size_t emitted = 0;
    while (emitted < max_patterns && next_ < num_random_) {
      out.push_back(prpg_.Next());
      ++next_;
      ++emitted;
    }
    while (emitted < max_patterns && next_ < TotalPatterns()) {
      out.push_back(expander_.Expand(
          deterministic_[static_cast<std::size_t>(next_ - num_random_)]));
      ++next_;
      ++emitted;
    }
    return emitted;
  }

  std::uint64_t TotalPatterns() const {
    return num_random_ + deterministic_.size();
  }

 private:
  bist::PatternSource prpg_;
  const ReseedingEncoder& expander_;
  std::uint64_t num_random_;
  std::span<const EncodedPattern> deterministic_;
  std::uint64_t next_ = 0;
};

}  // namespace bistdse::bist
