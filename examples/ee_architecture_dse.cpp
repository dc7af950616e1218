// Full paper case study: explore BIST integration into the 15-ECU / 3-bus
// automotive subnet with the 36 Table-I profiles, then inspect one selected
// implementation in detail (which profile each ECU runs and where its
// patterns live).
//
// Build & run:  ./build/examples/ee_architecture_dse [evaluations]
#include <cstdio>
#include <cstdlib>

#include "casestudy/casestudy.hpp"
#include "dse/parallel.hpp"

using namespace bistdse;

int main(int argc, char** argv) {
  const std::size_t evals =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 10000;

  auto cs = casestudy::BuildCaseStudy();
  std::printf("case study: %zu tasks / %zu messages functional, "
              "%zu ECUs x %zu BIST profiles\n",
              cs.functional_task_count, cs.functional_message_count,
              cs.ecus.size(),
              cs.augmentation.programs_by_ecu.begin()->second.size());

  dse::ExplorationConfig config;
  config.evaluations = evals;
  config.population_size = 100;
  config.seed = 1;
  const auto result = dse::ExploreParallel(cs.spec, cs.augmentation, config, 1);
  std::printf("explored %zu implementations in %.1f s -> %zu Pareto-optimal\n\n",
              result.evaluations, result.wall_seconds, result.pareto.size());

  // Pick the cheapest implementation with >= 80 % test quality (the paper's
  // headline point).
  const dse::ExplorationEntry* chosen = nullptr;
  for (const auto& entry : result.pareto) {
    if (entry.objectives.test_quality_percent < 80.0) continue;
    if (!chosen ||
        entry.objectives.monetary_cost < chosen->objectives.monetary_cost) {
      chosen = &entry;
    }
  }
  if (!chosen) {
    std::printf("no implementation reached 80 %% quality — raise evaluations\n");
    return 1;
  }

  const auto& o = chosen->objectives;
  std::printf("selected implementation:\n");
  std::printf("  test quality  : %.1f %%\n", o.test_quality_percent);
  std::printf("  shut-off time : %.1f s\n", o.shutoff_time_ms / 1e3);
  std::printf("  monetary cost : %.1f (gateway memory %lu B, distributed %lu B)\n\n",
              o.monetary_cost,
              static_cast<unsigned long>(o.gateway_memory_bytes),
              static_cast<unsigned long>(o.distributed_memory_bytes));

  std::printf("per-ECU BIST configuration:\n");
  const auto& app = cs.spec.Application();
  for (const auto& [ecu, programs] : cs.augmentation.programs_by_ecu) {
    const auto& ecu_name = cs.spec.Architecture().GetResource(ecu).name;
    bool any = false;
    for (const auto& prog : programs) {
      if (!chosen->implementation.IsBound(cs.spec, prog.test_task)) continue;
      const auto data_at =
          chosen->implementation.BoundResource(cs.spec, prog.data_task);
      const auto& test = app.GetTask(prog.test_task);
      std::printf("  %-6s profile %2u  c=%.2f %%  l=%.2f ms  patterns %s\n",
                  ecu_name.c_str(), prog.profile_index + 1,
                  test.fault_coverage_percent, test.runtime_ms,
                  data_at == ecu ? "local" : "at gateway");
      any = true;
    }
    if (!any) std::printf("  %-6s no BIST selected\n", ecu_name.c_str());
  }
  return 0;
}
