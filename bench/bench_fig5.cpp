// Reproduces Fig. 5: the Pareto front of monetary costs versus test quality
// for the 15-ECU case study, with implementations split at a shut-off time
// of 20 seconds (the paper marks <= 20 s with a filled circle and > 20 s
// with a triangle). Also reports the paper's headline metrics: number of
// non-dominated implementations and the cheapest implementation with
// >= 80 % test quality relative to a diagnosis-free design.
//
// Env: BISTDSE_EVALS (default 60000), BISTDSE_SEED (default 1),
//      BISTDSE_POP (default 150).
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "casestudy/casestudy.hpp"
#include "dse/parallel.hpp"
#include "dse/refine.hpp"

using namespace bistdse;

int main() {
  bench::PrintHeader(
      "Fig. 5 — monetary costs vs. test quality, split at 20 s shut-off",
      "Paper: 176 non-dominated implementations out of 100,000 evaluated;\n"
      "80.7 % test quality at < 3.7 % additional cost (patterns stored\n"
      "centrally at the gateway -> shut-off > 20 s).");

  const auto evals = bench::EnvU64("BISTDSE_EVALS", 60000);
  const auto seed = bench::EnvU64("BISTDSE_SEED", 1);
  const auto pop = bench::EnvU64("BISTDSE_POP", 150);

  auto cs = casestudy::BuildCaseStudy();
  dse::ExplorationConfig config;
  config.evaluations = evals;
  config.population_size = pop;
  config.mutation_rate = 3.0 / 2236.0;
  config.seed = seed;
  const auto result = dse::ExploreParallel(cs.spec, cs.augmentation, config, 1);

  // Wall time goes to stderr: stdout is pinned byte for byte
  // (bench/fig5.expected).
  std::fprintf(stderr, "bench_fig5: exploration took %.1f s (%.0f/s)\n",
               result.wall_seconds, result.Throughput());
  std::printf("\nevaluated %zu implementations; "
              "%zu non-dominated (paper: 176 of 100,000 in 29 min)\n\n",
              result.evaluations, result.pareto.size());

  std::vector<const dse::ExplorationEntry*> front;
  for (const auto& e : result.pareto) front.push_back(&e);
  std::sort(front.begin(), front.end(), [](const auto* a, const auto* b) {
    return a->objectives.monetary_cost < b->objectives.monetary_cost;
  });

  int fast = 0, slow = 0;
  for (const auto* e : front) {
    (e->objectives.shutoff_time_ms <= 20000 ? fast : slow)++;
  }
  std::printf("shut-off <= 20 s (o): %d   shut-off > 20 s (^): %d\n\n", fast,
              slow);

  std::printf("  cost    | quality  | mark | shut-off [s] | gw mem [B] | "
              "local mem [B]\n");
  std::printf("----------+----------+------+--------------+------------+"
              "--------------\n");
  const std::size_t stride = std::max<std::size_t>(1, front.size() / 40);
  for (std::size_t i = 0; i < front.size(); i += stride) {
    const auto& o = front[i]->objectives;
    std::printf("  %7.1f | %6.2f %% |  %s   | %12.1f | %10llu | %12llu\n",
                o.monetary_cost, o.test_quality_percent,
                o.shutoff_time_ms <= 20000 ? "o" : "^",
                o.shutoff_time_ms / 1e3,
                static_cast<unsigned long long>(o.gateway_memory_bytes),
                static_cast<unsigned long long>(o.distributed_memory_bytes));
  }

  // Headline (paper §IV.B wording): an implementation with >= 80 % test
  // quality whose *additional* (diagnosis-induced) costs — the pattern
  // memory — are smallest relative to the same design without structural
  // tests.
  const dse::ExplorationEntry* headline = nullptr;
  double headline_rel = 0.0;
  for (const auto* e : front) {
    const auto& o = e->objectives;
    if (o.test_quality_percent < 80.0) continue;
    const double rel =
        o.pattern_memory_cost / (o.monetary_cost - o.pattern_memory_cost);
    if (!headline || rel < headline_rel) {
      headline = e;
      headline_rel = rel;
    }
  }
  if (headline) {
    const auto& o = headline->objectives;
    const double mem_cost = o.pattern_memory_cost;
    const double base = o.monetary_cost - mem_cost;
    std::printf("\nheadline: %.1f %% test quality at +%.2f %% cost over the "
                "diagnosis-free design\n          (paper: 80.7 %% at "
                "< 3.7 %%)\n",
                o.test_quality_percent, 100.0 * mem_cost / base);
    std::printf("          shut-off %.1f s (pattern data at the gateway: "
                "%llu B vs %llu B local)\n",
                o.shutoff_time_ms / 1e3,
                static_cast<unsigned long long>(o.gateway_memory_bytes),
                static_cast<unsigned long long>(o.distributed_memory_bytes));
  } else {
    std::printf("\nheadline: no implementation with >= 80 %% quality found — "
                "raise BISTDSE_EVALS\n");
  }

  // Optional memetic polish (extension over the paper's flow): local moves
  // on the front often shave the last distinct gateway profiles.
  const auto refine_evals = bench::EnvU64("BISTDSE_REFINE", 15000);
  if (refine_evals > 0) {
    dse::RefineOptions opts;
    opts.max_evaluations = refine_evals;
    opts.seed = seed;
    const auto refined =
        dse::RefineFront(cs.spec, cs.augmentation, result.pareto, config, opts);
    const dse::ExplorationEntry* best = nullptr;
    double best_rel = 0.0;
    for (const auto& e : refined.pareto) {
      const auto& o = e.objectives;
      if (o.test_quality_percent < 80.0) continue;
      const double rel =
          o.pattern_memory_cost / (o.monetary_cost - o.pattern_memory_cost);
      if (!best || rel < best_rel) {
        best = &e;
        best_rel = rel;
      }
    }
    if (best) {
      const auto& o = best->objectives;
      const double base = o.monetary_cost - o.pattern_memory_cost;
      std::printf("\nafter memetic refinement (%zu neighbor evals, %zu "
                  "improvements):\n",
                  refined.evaluations, refined.improvements);
      std::printf("          %.1f %% quality at +%.2f %% cost; front size "
                  "%zu\n",
                  o.test_quality_percent,
                  100.0 * o.pattern_memory_cost / base, refined.pareto.size());
    }
  }
  return 0;
}
