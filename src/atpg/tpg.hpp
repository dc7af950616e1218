// Deterministic test pattern generation with fault dropping and
// reverse-order compaction — the "top-up" stage of mixed-mode BIST.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "atpg/podem.hpp"
#include "sim/fault.hpp"
#include "sim/pattern_set.hpp"

namespace bistdse::atpg {

struct DeterministicTpgOptions {
  std::uint64_t seed = 1;               ///< For random fill of don't-cares.
  std::uint32_t backtrack_limit = 200;  ///< PODEM effort per fault.
  bool reverse_compaction = true;       ///< Reverse-order fault-sim compaction.
};

struct DeterministicTpgResult {
  /// Pre-fill cubes (care bits only), aligned with `patterns`. Their care-bit
  /// counts drive the BIST encoding cost model.
  std::vector<TestCube> cubes;
  /// Fully specified patterns after random fill (and compaction, if enabled).
  std::vector<sim::BitPattern> patterns;
  std::size_t detected = 0;    ///< Target faults detected by `patterns`.
  std::size_t untestable = 0;  ///< Proven redundant.
  std::size_t aborted = 0;     ///< PODEM gave up (backtrack limit).
  std::size_t total_care_bits = 0;
  /// Distinct fanout-free regions the target list was batched into (PODEM
  /// reuses each region's last successful cube as a decision hint).
  std::size_t ffr_groups = 0;
};

/// Generates deterministic patterns covering `targets`. Faults detected by an
/// earlier pattern are dropped before ATPG is attempted for them.
DeterministicTpgResult GenerateDeterministicPatterns(
    const netlist::Netlist& netlist, std::span<const sim::StuckAtFault> targets,
    const DeterministicTpgOptions& options = {});

/// Reverse-order fault-simulation compaction: returns the subset of
/// `patterns` (original relative order preserved) that still detects every
/// fault of `targets` that the full set detects. `keep_mask_out`, if non-null,
/// receives one flag per input pattern.
std::vector<sim::BitPattern> CompactPatterns(
    const netlist::Netlist& netlist, std::span<const sim::BitPattern> patterns,
    std::span<const sim::StuckAtFault> targets,
    std::vector<bool>* keep_mask_out = nullptr);

}  // namespace bistdse::atpg
