// Partial networking (paper §I): with AUTOSAR partial networking an ECU
// powers down individually, so its BIST session must fit the window before
// real power-down. This example explores the case study under per-ECU
// deadlines and contrasts the designs that survive a strict 100 ms budget
// (local pattern storage only) with those allowed a 1 h window.
//
// Build & run:  ./build/examples/partial_networking [evaluations]
#include <cstdio>
#include <cstdlib>

#include "casestudy/casestudy.hpp"
#include "dse/parallel.hpp"
#include "dse/partial_networking.hpp"

using namespace bistdse;

int main(int argc, char** argv) {
  const std::size_t evals =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 8000;

  auto cs = casestudy::BuildCaseStudy();
  dse::ExplorationConfig config;
  config.evaluations = evals;
  config.population_size = 64;
  config.seed = 21;
  const auto result = dse::ExploreParallel(cs.spec, cs.augmentation, config, 1);
  std::printf("explored %zu implementations, front size %zu\n\n",
              result.evaluations, result.pareto.size());

  const double deadlines_ms[] = {500.0, 60.0 * 60e3};
  for (double deadline : deadlines_ms) {
    std::size_t feasible = 0;
    const dse::ExplorationEntry* best = nullptr;
    for (const auto& entry : result.pareto) {
      const auto report = dse::AnalyzePartialNetworking(
          cs.spec, cs.augmentation, entry.implementation, {}, deadline);
      if (!report.AllDeadlinesMet()) continue;
      ++feasible;
      if (entry.objectives.ecus_with_bist == 0) continue;
      if (!best || entry.objectives.test_quality_percent >
                       best->objectives.test_quality_percent) {
        best = &entry;
      }
    }
    std::printf("power-down deadline %.0f ms: %zu of %zu front designs "
                "feasible\n",
                deadline, feasible, result.pareto.size());
    if (best) {
      const auto& o = best->objectives;
      std::printf("  best feasible: quality %.1f %%, cost %.1f, gateway %lu B,"
                  " local %lu B\n",
                  o.test_quality_percent, o.monetary_cost,
                  static_cast<unsigned long>(o.gateway_memory_bytes),
                  static_cast<unsigned long>(o.distributed_memory_bytes));
      std::printf("  -> %s\n\n",
                  o.gateway_memory_bytes == 0
                      ? "strict windows force local pattern storage"
                      : "a generous window admits central storage");
    } else {
      std::printf("  (no BIST-carrying front design fits this window — "
                  "raise evaluations so all-local designs appear)\n\n");
    }
  }
  return 0;
}
