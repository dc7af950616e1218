// STUMPS session engine (Self-Testing Unit using MISR and Parallel Sequence
// generator) with the diagnostic extension of the paper's Fig. 1: the test
// response is compacted into *intermediate* signatures every
// `signature_window` patterns; signatures that differ from the golden
// response data are recorded as fail data (window index + observed
// signature), which is what the BIST collection task b^R gathers at the
// gateway.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "bist/lfsr.hpp"
#include "bist/misr.hpp"
#include "bist/reseeding.hpp"
#include "netlist/netlist.hpp"
#include "sim/campaign.hpp"
#include "sim/fault.hpp"

namespace bistdse::bist {

struct StumpsConfig {
  std::uint32_t num_scan_chains = 100;
  std::uint32_t max_chain_length = 77;
  double test_frequency_hz = 40e6;
  std::uint32_t signature_window = 32;  ///< Patterns per intermediate signature.
  /// The response/fail memory is a fixed-size resource: long sessions widen
  /// their windows so that at most this many intermediate signatures exist
  /// (160 windows x 4 B = 640 B, matching the paper's ~638 B fail data).
  std::uint32_t max_windows_per_session = 160;

  /// Patterns per window for a session of `total` patterns: the nominal
  /// signature_window, widened to respect max_windows_per_session.
  std::uint64_t EffectiveWindow(std::uint64_t total) const {
    const std::uint64_t nominal = signature_window;
    if (max_windows_per_session == 0) return nominal;
    const std::uint64_t widened =
        (total + max_windows_per_session - 1) / max_windows_per_session;
    return std::max(nominal, widened);
  }
  std::uint32_t prpg_degree = 32;       ///< Pseudo-random TPG LFSR size.
  std::uint64_t prpg_seed = 0xB157D5Eu;
  /// Feed the scan chains through the STUMPS phase shifter (per-chain XOR
  /// taps on the PRPG) instead of serially unrolling the LFSR stream.
  bool use_phase_shifter = false;
  std::uint64_t phase_shifter_seed = 0xF5;
  std::uint32_t misr_width = 32;
  /// "Strong windows" (Cook et al., ETS'12): reset the MISR at every window
  /// boundary so windows fail independently — this is what makes the fail
  /// data diagnosable instead of merely pass/fail.
  bool reset_misr_per_window = true;

  /// Fault-simulation parallelism of the session engine: RunBatch() fans its
  /// injected faults across the shared pool (1 = serial, 0 = full pool
  /// width). Single-fault Run() has no fault-level parallelism to exploit.
  /// Signatures are bit-identical for every value.
  std::size_t sim_threads = 1;
  /// Simulation block width W of the session engine: W*64 patterns per
  /// circuit sweep (W in {1, 2, 4, 8, 16}). Signatures are bit-identical
  /// for every width.
  std::size_t sim_block_width = 4;

  /// Throws std::invalid_argument naming the field unless the signature
  /// layout is usable: signature_window >= 1 and misr_width in [1, 64].
  /// StumpsSession, SignatureDiagnosis and FaultDictionary call it on
  /// construction.
  void Validate() const;

  /// Scan cycles needed to apply one pattern: shift in (longest chain) plus
  /// one capture cycle. Shift-out overlaps the next shift-in.
  std::uint32_t CyclesPerPattern() const { return max_chain_length + 1; }

  /// Test application time for `n` patterns in milliseconds.
  double PatternTimeMs(std::uint64_t n) const {
    return static_cast<double>(n) * CyclesPerPattern() /
           test_frequency_hz * 1e3;
  }
};

/// One entry of the fail memory: which signature window failed and what the
/// MISR actually held. A few such entries suffice for logic diagnosis [10].
struct FailDatum {
  std::uint32_t window_index = 0;
  std::uint64_t observed_signature = 0;
  std::uint64_t expected_signature = 0;
};

struct SessionResult {
  std::vector<std::uint64_t> window_signatures;  ///< All intermediate signatures.
  std::vector<FailDatum> fail_data;  ///< Non-empty iff the CUT is faulty.
  std::uint64_t total_patterns = 0;
  bool pass = true;
};

/// Executes BIST sessions on a full-scan CUT.
class StumpsSession {
 public:
  StumpsSession(const netlist::Netlist& netlist, StumpsConfig config);

  /// Runs `num_random` pseudo-random patterns followed by the expansion of
  /// `deterministic` seeds. If `injected_fault` is set the CUT behaves
  /// faulty (a RunBatch of one); fail data is produced by comparing against
  /// the golden run (computed on demand and cached).
  SessionResult Run(std::uint64_t num_random,
                    std::span<const EncodedPattern> deterministic,
                    const std::optional<sim::StuckAtFault>& injected_fault);

  /// Runs one faulty session per entry of `faults` in a single streaming
  /// pass over the pattern stream: every block is simulated once and each
  /// fault's window error signatures accumulate fault-partitioned across
  /// the pool (StumpsConfig::sim_threads; see bist::ErrorSignatureSink).
  /// Result i is bit-identical to Run(num_random, deterministic, faults[i])
  /// for every thread count and block width.
  std::vector<SessionResult> RunBatch(
      std::uint64_t num_random, std::span<const EncodedPattern> deterministic,
      std::span<const sim::StuckAtFault> faults);

  /// The golden (fault-free) intermediate signatures — the "response data"
  /// stored by the BIST data task b^D.
  const std::vector<std::uint64_t>& GoldenSignatures(
      std::uint64_t num_random,
      std::span<const EncodedPattern> deterministic);

  const StumpsConfig& Config() const { return config_; }

  /// Bytes of response data for a session of `n` patterns: one MISR
  /// signature per (effective) window.
  std::uint64_t ResponseDataBytes(std::uint64_t n) const {
    const std::uint64_t window = config_.EffectiveWindow(n);
    const std::uint64_t windows = (n + window - 1) / window;
    return windows * ((config_.misr_width + 7) / 8);
  }

 private:
  const netlist::Netlist& netlist_;
  StumpsConfig config_;
  ReseedingEncoder expander_;
  /// The session's campaign kernel; simulator state is reused across the
  /// golden run, every injected-fault replay, and RunBatch passes.
  sim::CampaignRunner runner_;
  std::vector<std::uint64_t> golden_cache_;
  std::uint64_t golden_cache_random_ = 0;
  std::uint64_t golden_cache_det_hash_ = 0;
  bool golden_cache_valid_ = false;
};

}  // namespace bistdse::bist
