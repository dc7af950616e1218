// Window signatures of BIST sessions from the GF(2) linearity of the MISR
// (misr.hpp). One streaming campaign over a session's pattern stream gives
// every window signature of every fault at once:
//
//   * per simulated block, each fault's sparse output error (the nonzero
//     words of faulty XOR good, sim::FaultView::OutputErrors) is folded
//     into its window's error signature: an error bit of pattern q of a
//     window (pattern index inside the window) at core output j sits at
//     absorption position q*O + j of the window's L = len*O bits (O core
//     outputs), so it adds x^(L-1-q*O-j) mod P. The fault-free signature is
//     the same sum over the good response's set bits;
//   * a fault fails window w exactly when its error signature E_w is
//     nonzero, and its faulty signature is golden_w XOR E_w. A detected
//     fault whose error signature is 0 aliases and does not fail;
//   * strong windows reset the MISR, so E_w is the window's own sum. Weak
//     windows chain: E_w = E_{w-1} * x^L_w XOR local_w;
//   * completed windows are flushed after each block, so the sink holds
//     error signatures only for the windows one block spans — O(faults x
//     windows per block) beyond what the consumer keeps.
//
// The x^k table is derived by running bist::Misr, so the register's width
// and polynomial have one definition. Results are bit-identical to
// absorbing every response bit through Misr::AbsorbBit in (pattern, core
// output) order, for every block width, thread count and shortcut setting.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "sim/campaign.hpp"
#include "sim/fault.hpp"

namespace bistdse::bist {

/// Where a campaign's patterns fall in a session's signature windows.
struct WindowLayout {
  std::uint32_t misr_width = 32;
  std::uint64_t window = 1;          ///< Patterns per window (>= 1).
  std::uint64_t total_patterns = 0;  ///< Session length; the last window
                                     ///< may be partial.
  /// Session index of the campaign's first pattern. Must be a window
  /// boundary, and 0 for weak windows (their chain starts at reset).
  std::uint64_t first_pattern = 0;
  bool strong = true;  ///< MISR reset at every window boundary.

  /// Patterns in window w (the last window may be shorter).
  std::uint64_t WindowLength(std::uint64_t w) const {
    return std::min(window, total_patterns - w * window);
  }
};

/// Campaign sink computing window error signatures of `faults` (and, with
/// `track_golden`, the fault-free window signatures) in one pass. Each
/// completed window is handed to `on_window` in window order on the
/// calling thread: `golden` (0 without golden tracking) and `errors[i]`,
/// the error signature of faults[i]. The campaign must stream exactly the
/// layout's patterns from first_pattern on.
class ErrorSignatureSink final : public sim::CampaignSink {
 public:
  using WindowFn = std::function<void(std::uint32_t window,
                                      std::uint64_t golden,
                                      std::span<const std::uint64_t> errors)>;

  ErrorSignatureSink(std::size_t num_outputs, const WindowLayout& layout,
                     std::span<const sim::StuckAtFault> faults,
                     bool track_golden, WindowFn on_window);

  bool OnBlock(sim::CampaignBlock& block) override;

 private:
  std::size_t num_outputs_;
  WindowLayout layout_;
  std::span<const sim::StuckAtFault> faults_;
  bool track_golden_;
  WindowFn on_window_;
  std::vector<std::uint64_t> powers_;  ///< x^k mod P.
  /// Error signatures of the windows the current block touches, row-major:
  /// row r holds window open_ + r, one word per fault.
  std::vector<std::uint64_t> rows_;
  std::vector<std::uint64_t> golden_rows_;
  std::uint64_t open_ = 0;  ///< First window not yet flushed.
  /// Weak windows: each fault's (and the golden) signature at the end of
  /// the last flushed window.
  std::vector<std::uint64_t> carry_;
  std::uint64_t golden_carry_ = 0;
  /// Per in-block pattern: its row and the exponent of core output 0.
  std::vector<std::size_t> row_of_;
  std::vector<std::size_t> top_;
};

}  // namespace bistdse::bist
