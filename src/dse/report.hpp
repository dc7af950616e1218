// Export of exploration results: CSV of the Pareto front (one row per
// implementation) and a per-implementation text report (which profile each
// ECU runs, where its patterns live, route of the pattern message) — the
// artifacts a system designer would hand to the E/E integration team.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "dse/exploration.hpp"

namespace bistdse::dse {

/// CSV header + rows: cost, quality, shut-off, memory split, BIST counts.
void WriteFrontCsv(const ExplorationResult& result, std::ostream& out);

/// Human-readable description of one implementation.
std::string DescribeImplementation(const model::Specification& spec,
                                   const model::BistAugmentation& augmentation,
                                   const ExplorationEntry& entry);

/// Pareto entries reaching `min_quality_percent`, cheapest first — the
/// representative-pick rule shared by the CLI's --report flag and the
/// corpus sweep. Pointers index into `result.pareto`; empty when no entry
/// reaches the bar.
std::vector<const ExplorationEntry*> RankCheapestMeetingQuality(
    const ExplorationResult& result, double min_quality_percent);

/// Markdown summary of a front: counts, objective extremes, shut-off-class
/// split, and the paper-style headline (min diagnosis overhead at >= the
/// quality bar).
std::string SummarizeFront(const ExplorationResult& result,
                           double quality_bar_percent = 80.0);

}  // namespace bistdse::dse
