// Bit-accurate scan-chain emulation.
//
// Everything else in the library uses the standard full-scan *abstraction*:
// flop outputs are pseudo-primary inputs, flop D nets pseudo-primary
// outputs, and a "pattern" assigns all of them at once. This module emulates
// what the silicon actually does — shift registers moving one bit per test
// clock through the scan chains, a capture cycle, and the shifted-out
// response — and the test suite proves the abstraction exact against it.
// It also grounds the session runtime model: exactly
// (max chain length + 1) cycles per pattern with shift-out overlapped.
#pragma once

#include <cstdint>
#include <vector>

#include "netlist/netlist.hpp"
#include "sim/pattern_set.hpp"

namespace bistdse::bist {

class ScanChainSimulator {
 public:
  /// Partitions the flops into `num_chains` balanced chains (round-robin
  /// over Flops() order; lengths differ by at most one).
  ScanChainSimulator(const netlist::Netlist& netlist, std::uint32_t num_chains);

  std::uint32_t ChainCount() const {
    return static_cast<std::uint32_t>(chains_.size());
  }
  std::uint32_t MaxChainLength() const { return max_chain_length_; }

  /// Cycles consumed per pattern: shift-in of the longest chain + capture
  /// (shift-out overlaps the next shift-in).
  std::uint32_t CyclesPerPattern() const { return max_chain_length_ + 1; }

  /// Applies one test pattern through real shift/capture emulation:
  ///  1. shift the flop-load part of `pattern` into the chains bit by bit
  ///     (primary inputs are applied combinationally),
  ///  2. pulse one functional capture cycle,
  ///  3. shift the captured state out again (recording each scan-out bit).
  /// Returns the observed response in CoreOutputs() order (POs sampled at
  /// capture, then per-flop captured values recovered from the scan-out
  /// streams). `pattern` is in CoreInputs() order.
  sim::BitPattern ApplyAndObserve(const sim::BitPattern& pattern);

  /// Total test clock cycles spent so far (shift + capture).
  std::uint64_t CyclesElapsed() const { return cycles_; }

  /// Current flop contents (Flops() order).
  const std::vector<std::uint8_t>& FlopState() const { return flop_state_; }

 private:
  void ShiftOneCycle(const std::vector<std::uint8_t>& scan_in,
                     std::vector<std::uint8_t>* scan_out);

  const netlist::Netlist& netlist_;
  std::vector<std::vector<std::uint32_t>> chains_;  // flop indices, scan-in first
  std::vector<std::uint8_t> flop_state_;            // per flop index
  std::uint32_t max_chain_length_ = 0;
  std::uint64_t cycles_ = 0;
};

}  // namespace bistdse::bist
