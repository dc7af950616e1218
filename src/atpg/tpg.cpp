#include "atpg/tpg.hpp"

#include <algorithm>
#include <numeric>

#include "netlist/structure.hpp"
#include "sim/campaign.hpp"
#include "util/rng.hpp"

namespace bistdse::atpg {

using sim::BitPattern;
using sim::PatternWord;
using sim::StuckAtFault;

namespace {

BitPattern FillCube(const TestCube& cube, util::SplitMix64& rng) {
  BitPattern p(cube.bits.size());
  for (std::size_t i = 0; i < cube.bits.size(); ++i) {
    switch (cube.bits[i]) {
      case Value3::Zero: p[i] = 0; break;
      case Value3::One: p[i] = 1; break;
      case Value3::X: p[i] = rng.Chance(0.5) ? 1 : 0; break;
    }
  }
  return p;
}

/// Marks every tracked fault the block detects as dropped in a caller-owned
/// status array (`indices` maps tracked positions to status slots).
class DropScanSink final : public sim::CampaignSink {
 public:
  DropScanSink(std::vector<std::uint8_t>& status,
               const std::vector<std::size_t>& indices,
               std::uint8_t dropped_value, std::size_t& detected)
      : status_(status),
        indices_(indices),
        dropped_value_(dropped_value),
        detected_(detected) {}

  bool OnBlock(sim::CampaignBlock& block) override {
    for (std::size_t i = 0; i < block.TrackedCount(); ++i) {
      if (block.TrackedDetected(i)) {
        status_[indices_[block.TrackedIndex(i)]] = dropped_value_;
        ++detected_;
      }
    }
    return true;
  }

 private:
  std::vector<std::uint8_t>& status_;
  const std::vector<std::size_t>& indices_;
  std::uint8_t dropped_value_;
  std::size_t& detected_;
};

}  // namespace

DeterministicTpgResult GenerateDeterministicPatterns(
    const netlist::Netlist& netlist, std::span<const StuckAtFault> targets,
    const DeterministicTpgOptions& options) {
  DeterministicTpgResult result;
  util::SplitMix64 rng(options.seed);
  Podem podem(netlist, options.backtrack_limit);
  // One single-pattern drop-scan campaign per generated pattern; the runner
  // keeps its simulator state across all of them.
  sim::CampaignRunner runner(netlist, {.block_width = 1, .threads = 1});

  std::vector<StuckAtFault> remaining(targets.begin(), targets.end());
  enum : std::uint8_t { kPending, kDropped, kUntestable };
  std::vector<std::uint8_t> status(remaining.size(), kPending);
  std::vector<StuckAtFault> pending;
  std::vector<std::size_t> pending_idx;

  // Batch targets per fanout-free region: faults of one region share their
  // propagation path from the stem onward (and usually their activation
  // neighborhood), so the region's last successful cube is handed to PODEM
  // as a decision hint and the implication/backtrace work is amortized
  // across the whole region instead of repeated per fault. Stable order
  // within a region preserves the collapsed-fault order.
  const netlist::StructuralInfo& structure = netlist.Structure();
  std::vector<std::size_t> order(remaining.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return structure.FfrStemOf(remaining[a].node) <
                            structure.FfrStemOf(remaining[b].node);
                   });

  netlist::NodeId current_stem = netlist::kInvalidNode;
  TestCube region_hint;
  bool have_hint = false;

  for (std::size_t i : order) {
    if (status[i] != kPending) continue;
    const netlist::NodeId stem = structure.FfrStemOf(remaining[i].node);
    if (stem != current_stem) {
      current_stem = stem;
      have_hint = false;
      ++result.ffr_groups;
    }
    const PodemResult pr =
        podem.Generate(remaining[i], have_hint ? &region_hint : nullptr);
    if (pr.outcome == PodemOutcome::Untestable) {
      status[i] = kUntestable;
      ++result.untestable;
      continue;
    }
    if (pr.outcome == PodemOutcome::Aborted) {
      // Stays pending: a later pattern may catch it by chance.
      ++result.aborted;
      continue;
    }

    const BitPattern pattern = FillCube(pr.cube, rng);
    // Scan the whole pending list so previously aborted faults can still be
    // dropped by serendipitous detection.
    pending.clear();
    pending_idx.clear();
    for (std::size_t j = 0; j < remaining.size(); ++j) {
      if (status[j] != kPending) continue;
      pending.push_back(remaining[j]);
      pending_idx.push_back(j);
    }
    sim::StoredPatternSource source(std::span<const BitPattern>(&pattern, 1));
    DropScanSink sink(status, pending_idx, kDropped, result.detected);
    runner.Run(source, sink, {.track = pending});
    result.total_care_bits += pr.cube.CareBitCount();
    result.cubes.push_back(pr.cube);
    result.patterns.push_back(pattern);
    region_hint = pr.cube;
    have_hint = true;
  }

  if (options.reverse_compaction && !result.patterns.empty()) {
    std::vector<bool> keep;
    auto compacted = CompactPatterns(netlist, result.patterns, targets, &keep);
    std::vector<TestCube> kept_cubes;
    std::size_t care = 0;
    for (std::size_t i = 0; i < keep.size(); ++i) {
      if (!keep[i]) continue;
      care += result.cubes[i].CareBitCount();
      kept_cubes.push_back(std::move(result.cubes[i]));
    }
    result.cubes = std::move(kept_cubes);
    result.patterns = std::move(compacted);
    result.total_care_bits = care;
  }
  return result;
}

std::vector<BitPattern> CompactPatterns(
    const netlist::Netlist& netlist, std::span<const BitPattern> patterns,
    std::span<const StuckAtFault> targets, std::vector<bool>* keep_mask_out) {
  // Walk patterns in reverse order; keep a pattern iff it detects at least
  // one still-undetected fault. Later patterns (generated for the hardest
  // faults last) tend to detect many easy faults, making early patterns
  // redundant. A pattern detecting a still-undetected fault is by definition
  // that fault's first detection in the reversed stream, so the keep set is
  // exactly "some fault first-detects here" — a reversed drop campaign with
  // a first-detect sink.
  sim::CampaignRunner runner(netlist, {.block_width = 1, .threads = 1});
  sim::StoredPatternSource source(patterns, /*reversed=*/true);
  std::vector<std::uint64_t> first_detect(targets.size(), UINT64_MAX);
  sim::FirstDetectSink sink(first_detect);
  runner.Run(source, sink, {.track = targets, .drop_detected = true});

  std::vector<bool> keep(patterns.size(), false);
  for (std::uint64_t rev : first_detect) {
    if (rev != UINT64_MAX) {
      keep[patterns.size() - 1 - static_cast<std::size_t>(rev)] = true;
    }
  }

  std::vector<BitPattern> out;
  for (std::size_t i = 0; i < patterns.size(); ++i) {
    if (keep[i]) out.push_back(patterns[i]);
  }
  if (keep_mask_out) *keep_mask_out = std::move(keep);
  return out;
}

}  // namespace bistdse::atpg
