#include "bist/diagnosis.hpp"

#include <algorithm>
#include <bit>
#include <map>

#include "bist/campaign_sources.hpp"
#include "bist/error_signatures.hpp"

namespace bistdse::bist {

using sim::BitPattern;
using sim::PatternWord;
using sim::StuckAtFault;

SignatureDiagnosis::SignatureDiagnosis(
    const netlist::Netlist& netlist, StumpsConfig config,
    std::uint64_t num_random, std::span<const EncodedPattern> deterministic,
    std::size_t block_width, std::size_t threads)
    : netlist_(netlist),
      config_(config),
      num_random_(num_random),
      deterministic_(deterministic.begin(), deterministic.end()),
      // The runner constructor validates the width, so a bad width fails at
      // construction, not per query.
      runner_(netlist,
              sim::CampaignConfig{.block_width = block_width,
                                  .threads = threads}) {
  config_.Validate();
  const std::uint64_t total = num_random_ + deterministic_.size();
  window_ = config_.EffectiveWindow(total);
  window_count_ = static_cast<std::uint32_t>((total + window_ - 1) / window_);
}

namespace {

/// Stage 1 sink: per tracked candidate, marks the windows containing at
/// least one detecting pattern. Detection lanes arrive already reduced per
/// candidate, so the window scatter is a cheap serial loop.
class WindowPredictSink final : public sim::CampaignSink {
 public:
  WindowPredictSink(std::vector<std::vector<std::uint64_t>>& predicted,
                    std::uint64_t window)
      : predicted_(predicted), window_(window) {}

  bool OnBlock(sim::CampaignBlock& block) override {
    const std::uint64_t base = block.BaseIndex();
    for (std::size_t c = 0; c < block.TrackedCount(); ++c) {
      const std::span<const PatternWord> det = block.TrackedDetect(c);
      std::vector<std::uint64_t>& rows = predicted_[block.TrackedIndex(c)];
      for (std::size_t l = 0; l < det.size(); ++l) {
        PatternWord dl = det[l];
        while (dl != 0) {
          const int k = std::countr_zero(dl);
          dl &= dl - 1;
          const std::uint64_t w =
              (base + l * 64 + static_cast<std::uint64_t>(k)) / window_;
          rows[w / 64] |= std::uint64_t{1} << (w % 64);
        }
      }
    }
    return true;
  }

 private:
  std::vector<std::vector<std::uint64_t>>& predicted_;
  std::uint64_t window_;
};

}  // namespace

std::vector<DiagnosisCandidate> SignatureDiagnosis::Diagnose(
    std::span<const FailDatum> fail_data,
    std::span<const StuckAtFault> candidates, std::size_t top_k) const {
  const std::size_t width = netlist_.CoreInputs().size();
  const std::size_t num_outputs = netlist_.CoreOutputs().size();
  ReseedingEncoder expander(static_cast<std::uint32_t>(width));

  // ---- Stage 1: failing-window set match ---------------------------------
  const std::size_t wwords = (window_count_ + 63) / 64;
  std::vector<std::vector<std::uint64_t>> predicted(
      candidates.size(), std::vector<std::uint64_t>(wwords, 0));
  {
    SessionStreamSource source(config_, width, expander, num_random_,
                               deterministic_);
    WindowPredictSink sink(predicted, window_);
    runner_.Run(source, sink, {.track = candidates});
  }

  // Observed failing windows as a bitmask row. An index past the row is a
  // failing window no candidate predicts (FaultDictionary::Diagnose's
  // rule): it widens every union, once per distinct index, and stage 2
  // replays it with no patterns.
  std::vector<std::uint64_t> observed(wwords, 0);
  std::vector<std::uint32_t> unpredicted;
  for (const FailDatum& f : fail_data) {
    if (f.window_index / 64 < wwords) {
      observed[f.window_index / 64] |= std::uint64_t{1}
                                       << (f.window_index % 64);
    } else {
      unpredicted.push_back(f.window_index);
    }
  }
  std::sort(unpredicted.begin(), unpredicted.end());
  const auto unpredicted_count = static_cast<std::uint64_t>(
      std::unique(unpredicted.begin(), unpredicted.end()) -
      unpredicted.begin());

  std::vector<DiagnosisCandidate> ranked;
  ranked.reserve(candidates.size());
  for (std::size_t c = 0; c < candidates.size(); ++c) {
    std::uint64_t inter = 0, uni = unpredicted_count;
    for (std::size_t w = 0; w < wwords; ++w) {
      inter += std::popcount(predicted[c][w] & observed[w]);
      uni += std::popcount(predicted[c][w] | observed[w]);
    }
    const double score =
        uni == 0 ? 0.0 : static_cast<double>(inter) / static_cast<double>(uni);
    ranked.push_back({candidates[c], score});
  }
  std::stable_sort(ranked.begin(), ranked.end(),
                   [](const DiagnosisCandidate& a, const DiagnosisCandidate& b) {
                     return a.score > b.score;
                   });

  // ---- Stage 2: signature match on failing windows -----------------------
  // Window sets alone cannot separate faults failing (nearly) every window;
  // the observed MISR signatures can. Re-rank the short list by reproducing
  // the signatures of a few failing windows per candidate. Requires strong
  // windows (per-window MISR reset) so windows are independent.
  if (!fail_data.empty() && config_.reset_misr_per_window && !ranked.empty()) {
    // Tie-aware shortlist: extend past the nominal cut while stage-1 scores
    // tie, so equal-scoring candidates all get the signature test.
    std::size_t shortlist =
        std::min(ranked.size(), std::max<std::size_t>(top_k * 8, 32));
    while (shortlist < ranked.size() &&
           ranked[shortlist].score == ranked[shortlist - 1].score) {
      ++shortlist;
    }
    constexpr std::size_t kMaxWindows = 8;
    std::vector<const FailDatum*> selected;
    for (const FailDatum& f : fail_data) {
      selected.push_back(&f);
      if (selected.size() >= kMaxWindows) break;
    }

    // Collect the patterns of the selected windows by replaying the session
    // stream (no simulation needed).
    std::map<std::uint32_t, std::vector<BitPattern>> window_patterns;
    for (const FailDatum* f : selected) window_patterns[f->window_index] = {};
    {
      SessionStreamSource stream(config_, width, expander, num_random_,
                                 deterministic_);
      std::vector<BitPattern> buf;
      std::uint64_t base = 0;
      for (;;) {
        buf.clear();
        const std::size_t got = stream.Fill(256, buf);
        if (got == 0) break;
        for (std::size_t k = 0; k < got; ++k) {
          const auto w = static_cast<std::uint32_t>((base + k) / window_);
          auto it = window_patterns.find(w);
          if (it != window_patterns.end()) it->second.push_back(buf[k]);
        }
        base += got;
      }
    }

    // Per selected window, one mini-campaign over the window's patterns
    // reproduces the signature of every shortlist candidate at once: the
    // window alone is a one-window session of its own length. A window with
    // no patterns leaves every signature at the MISR's reset state 0.
    std::vector<StuckAtFault> shortlist_faults(shortlist);
    for (std::size_t r = 0; r < shortlist; ++r) {
      shortlist_faults[r] = ranked[r].fault;
    }
    std::vector<std::size_t> matches(shortlist, 0);
    std::vector<std::uint64_t> signatures;
    for (const FailDatum* f : selected) {
      const auto& pats = window_patterns.at(f->window_index);
      signatures.assign(shortlist, 0);
      sim::StoredPatternSource source(pats);
      ErrorSignatureSink sink(
          num_outputs,
          {.misr_width = config_.misr_width,
           .window = std::max<std::uint64_t>(pats.size(), 1),
           .total_patterns = pats.size()},
          shortlist_faults, /*track_golden=*/true,
          [&](std::uint32_t, std::uint64_t golden,
              std::span<const std::uint64_t> errors) {
            for (std::size_t r = 0; r < shortlist; ++r) {
              signatures[r] = golden ^ errors[r];
            }
          });
      runner_.Run(source, sink);
      for (std::size_t r = 0; r < shortlist; ++r) {
        matches[r] += signatures[r] == f->observed_signature;
      }
    }
    for (std::size_t r = 0; r < shortlist; ++r) {
      // Signature evidence dominates ties: exact reproduction of the
      // observed failing signatures is the strongest possible match.
      ranked[r].score += static_cast<double>(matches[r]) /
                         static_cast<double>(selected.size());
    }
    std::stable_sort(
        ranked.begin(), ranked.begin() + static_cast<std::ptrdiff_t>(shortlist),
        [](const DiagnosisCandidate& a, const DiagnosisCandidate& b) {
          return a.score > b.score;
        });
  }

  if (ranked.size() > top_k) ranked.resize(top_k);
  return ranked;
}

}  // namespace bistdse::bist
