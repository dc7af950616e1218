// Signature-based logic diagnosis from BIST fail data.
//
// Implements the flow of Cook et al. (ETS'11/'12) at the abstraction level of
// this library: the fail memory holds the indices of failing strong windows;
// each candidate stuck-at fault predicts a set of failing windows via fault
// simulation of the very pattern stream the session applied; candidates are
// ranked by the match between predicted and observed failing windows.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "bist/stumps.hpp"
#include "sim/campaign.hpp"
#include "sim/fault.hpp"

namespace bistdse::bist {

struct DiagnosisCandidate {
  sim::StuckAtFault fault;
  /// Jaccard index of predicted vs. observed failing windows plus a
  /// signature bonus (matched fraction of the fail data), so in [0, 2].
  double score = 0.0;
};

class SignatureDiagnosis {
 public:
  /// Describes the session whose fail data will be diagnosed (same pattern
  /// stream parameters as the StumpsSession that produced it).
  /// `block_width` (W in {1, 2, 4, 8, 16}) selects the wide simulation datapath
  /// — W*64 patterns per fault-simulation sweep — and `threads` the
  /// candidate-level parallelism of each query (1 = serial, 0 = full pool
  /// width); the ranking is bit-identical for every width and thread count.
  SignatureDiagnosis(const netlist::Netlist& netlist, StumpsConfig config,
                     std::uint64_t num_random,
                     std::span<const EncodedPattern> deterministic,
                     std::size_t block_width = 4, std::size_t threads = 1);

  /// Ranks `candidates` against the observed fail data; returns the top_k
  /// best-matching candidates, best first. Ties keep fault-list order.
  /// Reuses the instance's cached simulator state across calls (no per-query
  /// simulator construction), so one SignatureDiagnosis must not serve
  /// concurrent Diagnose calls — use one instance per thread.
  std::vector<DiagnosisCandidate> Diagnose(
      std::span<const FailDatum> fail_data,
      std::span<const sim::StuckAtFault> candidates, std::size_t top_k) const;

  std::uint32_t WindowCount() const { return window_count_; }

 private:
  const netlist::Netlist& netlist_;
  StumpsConfig config_;
  std::uint64_t num_random_;
  std::vector<EncodedPattern> deterministic_;
  std::uint64_t window_ = 0;  ///< Effective patterns per window.
  std::uint32_t window_count_ = 0;
  /// The query campaign kernel; mutable so const queries can reuse its
  /// cached simulator state (see Diagnose's thread-safety note).
  mutable sim::CampaignRunner runner_;
};

}  // namespace bistdse::bist
