#include "bist/stumps.hpp"

#include <stdexcept>

#include "bist/campaign_sources.hpp"
#include "bist/error_signatures.hpp"

namespace bistdse::bist {

using netlist::Netlist;

namespace {

/// The window layout of a whole session of `total` patterns under `config`.
WindowLayout SessionWindowLayout(const StumpsConfig& config,
                                 std::uint64_t total) {
  return {.misr_width = config.misr_width,
          .window = config.EffectiveWindow(total),
          .total_patterns = total,
          .strong = config.reset_misr_per_window};
}

}  // namespace

void StumpsConfig::Validate() const {
  if (signature_window < 1) {
    throw std::invalid_argument("signature_window must be >= 1 (got 0)");
  }
  Misr::CheckedWidth(misr_width);
}

StumpsSession::StumpsSession(const Netlist& netlist, StumpsConfig config)
    : netlist_(netlist),
      config_(config),
      expander_(static_cast<std::uint32_t>(netlist.CoreInputs().size())),
      runner_(netlist,
              sim::CampaignConfig{.block_width = config.sim_block_width,
                                  .threads = config.sim_threads}) {
  if (!netlist.IsFinalized())
    throw std::invalid_argument("netlist must be finalized");
  config_.Validate();
}

const std::vector<std::uint64_t>& StumpsSession::GoldenSignatures(
    std::uint64_t num_random, std::span<const EncodedPattern> deterministic) {
  const std::uint64_t det_hash = HashEncodedPatterns(deterministic);
  if (!golden_cache_valid_ || golden_cache_random_ != num_random ||
      golden_cache_det_hash_ != det_hash) {
    golden_cache_.clear();
    SessionStreamSource source(config_, netlist_.CoreInputs().size(),
                               expander_, num_random, deterministic);
    ErrorSignatureSink sink(
        netlist_.CoreOutputs().size(),
        SessionWindowLayout(config_, source.TotalPatterns()), {},
        /*track_golden=*/true,
        [&](std::uint32_t, std::uint64_t golden,
            std::span<const std::uint64_t>) {
          golden_cache_.push_back(golden);
        });
    runner_.Run(source, sink);
    golden_cache_random_ = num_random;
    golden_cache_det_hash_ = det_hash;
    golden_cache_valid_ = true;
  }
  return golden_cache_;
}

SessionResult StumpsSession::Run(
    std::uint64_t num_random, std::span<const EncodedPattern> deterministic,
    const std::optional<sim::StuckAtFault>& injected_fault) {
  if (injected_fault) {
    return std::move(RunBatch(num_random, deterministic,
                              {&*injected_fault, 1})
                         .front());
  }
  SessionResult result;
  result.total_patterns = num_random + deterministic.size();
  result.window_signatures = GoldenSignatures(num_random, deterministic);
  return result;
}

std::vector<SessionResult> StumpsSession::RunBatch(
    std::uint64_t num_random, std::span<const EncodedPattern> deterministic,
    std::span<const sim::StuckAtFault> faults) {
  const auto& golden = GoldenSignatures(num_random, deterministic);
  std::vector<SessionResult> results(faults.size());
  for (SessionResult& r : results) {
    r.total_patterns = num_random + deterministic.size();
    r.window_signatures.reserve(golden.size());
  }
  SessionStreamSource source(config_, netlist_.CoreInputs().size(), expander_,
                             num_random, deterministic);
  ErrorSignatureSink sink(
      netlist_.CoreOutputs().size(),
      SessionWindowLayout(config_, source.TotalPatterns()), faults,
      /*track_golden=*/false,
      [&](std::uint32_t w, std::uint64_t, std::span<const std::uint64_t> errors) {
        for (std::size_t i = 0; i < errors.size(); ++i) {
          SessionResult& r = results[i];
          const std::uint64_t observed = golden[w] ^ errors[i];
          r.window_signatures.push_back(observed);
          if (errors[i] != 0) {
            r.fail_data.push_back({w, observed, golden[w]});
            r.pass = false;
          }
        }
      });
  runner_.Run(source, sink);
  return results;
}

}  // namespace bistdse::bist
