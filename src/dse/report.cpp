#include "dse/report.hpp"

#include <ostream>
#include <algorithm>
#include <sstream>

namespace bistdse::dse {

void WriteFrontCsv(const ExplorationResult& result, std::ostream& out) {
  out << "cost,test_quality_percent,transition_quality_percent,shutoff_ms,"
         "gateway_memory_bytes,distributed_memory_bytes,pattern_memory_cost,"
         "ecus_with_bist,ecus_allocated\n";
  for (const auto& entry : result.pareto) {
    const auto& o = entry.objectives;
    out << o.monetary_cost << ',' << o.test_quality_percent << ','
        << o.transition_quality_percent << ',' << o.shutoff_time_ms << ','
        << o.gateway_memory_bytes << ','
        << o.distributed_memory_bytes << ',' << o.pattern_memory_cost << ','
        << o.ecus_with_bist << ',' << o.ecus_allocated << '\n';
  }
}

std::string DescribeImplementation(const model::Specification& spec,
                                   const model::BistAugmentation& augmentation,
                                   const ExplorationEntry& entry) {
  const auto& app = spec.Application();
  const auto& arch = spec.Architecture();
  std::ostringstream ss;
  const auto& o = entry.objectives;
  ss << "implementation: quality " << o.test_quality_percent << " %, shut-off "
     << o.shutoff_time_ms / 1e3 << " s, cost " << o.monetary_cost << "\n";

  ss << "allocation:";
  for (model::ResourceId r = 0; r < arch.ResourceCount(); ++r) {
    if (r < entry.implementation.allocation.size() &&
        entry.implementation.allocation[r]) {
      ss << ' ' << arch.GetResource(r).name;
    }
  }
  ss << "\n";

  for (const auto& [ecu, programs] : augmentation.programs_by_ecu) {
    for (const auto& prog : programs) {
      if (!entry.implementation.IsBound(spec, prog.test_task)) continue;
      const auto data_at =
          entry.implementation.BoundResource(spec, prog.data_task);
      const auto& test = app.GetTask(prog.test_task);
      ss << arch.GetResource(ecu).name << ": profile "
         << prog.profile_index + 1 << " (c=" << test.fault_coverage_percent
         << " %, l=" << test.runtime_ms << " ms), patterns "
         << (data_at && *data_at == ecu ? "local" : "at gateway");
      const auto route = entry.implementation.routing.find(prog.pattern_message);
      if (route != entry.implementation.routing.end()) {
        ss << ", c^D route:";
        for (model::ResourceId r : route->second) {
          ss << ' ' << arch.GetResource(r).name;
        }
      }
      ss << "\n";
    }
  }
  return ss.str();
}

std::vector<const ExplorationEntry*> RankCheapestMeetingQuality(
    const ExplorationResult& result, double min_quality_percent) {
  std::vector<const ExplorationEntry*> picks;
  for (const auto& e : result.pareto) {
    if (e.objectives.test_quality_percent >= min_quality_percent) {
      picks.push_back(&e);
    }
  }
  std::sort(picks.begin(), picks.end(), [](const auto* a, const auto* b) {
    return a->objectives.monetary_cost < b->objectives.monetary_cost;
  });
  return picks;
}

std::string SummarizeFront(const ExplorationResult& result,
                           double quality_bar_percent) {
  std::ostringstream ss;
  ss << "## Exploration summary\n\n";
  ss << "- evaluations: " << result.evaluations << " (" << result.Throughput()
     << "/s)\n";
  ss << "- non-dominated implementations: " << result.pareto.size() << "\n";
  if (result.pareto.empty()) return ss.str();

  double min_cost = 1e300, max_q = -1e300, min_shutoff = 1e300;
  std::size_t fast = 0;
  const ExplorationEntry* headline = nullptr;
  double headline_rel = 0.0;
  for (const auto& e : result.pareto) {
    const auto& o = e.objectives;
    min_cost = std::min(min_cost, o.monetary_cost);
    max_q = std::max(max_q, o.test_quality_percent);
    min_shutoff = std::min(min_shutoff, o.shutoff_time_ms);
    fast += o.shutoff_time_ms <= 20000.0 ? 1 : 0;
    if (o.test_quality_percent >= quality_bar_percent) {
      const double rel =
          o.pattern_memory_cost / (o.monetary_cost - o.pattern_memory_cost);
      if (!headline || rel < headline_rel) {
        headline = &e;
        headline_rel = rel;
      }
    }
  }
  ss << "- cost floor: " << min_cost << "; best quality: " << max_q
     << " %; fastest shut-off: " << min_shutoff / 1e3 << " s\n";
  ss << "- shut-off <= 20 s: " << fast << " of " << result.pareto.size()
     << "\n";
  if (headline) {
    ss << "- headline: " << headline->objectives.test_quality_percent
       << " % quality at +" << 100.0 * headline_rel
       << " % diagnosis cost\n";
  } else {
    ss << "- headline: no design reaches " << quality_bar_percent
       << " % quality\n";
  }
  return ss.str();
}

}  // namespace bistdse::dse
