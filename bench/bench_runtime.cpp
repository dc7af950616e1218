// Reproduces the §IV.B runtime claim: "Evaluating 100,000 implementations
// took roughly 29 minutes" (8-core i7, 2014). Measures decode+evaluate
// throughput of this implementation and extrapolates.
//
// Env: BISTDSE_RT_EVALS (default 10000).
#include <chrono>
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "casestudy/casestudy.hpp"
#include "dse/parallel.hpp"

using namespace bistdse;

int main() {
  bench::PrintHeader(
      "Runtime — evaluations per second of the SAT-decoding DSE",
      "Paper: 100,000 implementations in ~29 min (~57/s) on an 8-core i7.");

  const auto evals = bench::EnvU64("BISTDSE_RT_EVALS", 10000);
  auto cs = casestudy::BuildCaseStudy();

  dse::ExplorationConfig config;
  config.evaluations = evals;
  config.population_size = 100;
  config.seed = 3;
  const auto result = dse::ExploreParallel(cs.spec, cs.augmentation, config, 1);

  // Wall-clock figures go to stderr: stdout is pinned byte for byte
  // (bench/runtime.expected).
  const double per_100k = 100000.0 / result.Throughput();
  std::fprintf(stderr,
               "bench_runtime: %zu evaluations in %.2f s -> %.0f "
               "evaluations/s; extrapolated 100,000 evaluations: %.1f s "
               "(%.1f min); paper: ~29 min\n",
               result.evaluations, result.wall_seconds, result.Throughput(),
               per_100k, per_100k / 60.0);
  std::printf("\n%zu evaluations; decoder: %llu decodes, %llu infeasible\n",
              result.evaluations,
              static_cast<unsigned long long>(result.decoder_stats.decodes),
              static_cast<unsigned long long>(result.decoder_stats.infeasible));

  // Island parallelism (the paper used an 8-core i7): islands of the same
  // budget run concurrently and merge.
  {
    dse::ExplorationConfig island_config = config;
    island_config.evaluations = evals / 4;
    const auto seq_start = std::chrono::steady_clock::now();
    for (int i = 0; i < 4; ++i) {
      dse::ExplorationConfig c = island_config;
      c.seed = 100 + i;
      dse::ExploreParallel(cs.spec, cs.augmentation, c, 1);
    }
    const double seq_s = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - seq_start)
                             .count();
    dse::ExplorationConfig par_config = island_config;
    par_config.seed = 100;
    const auto par =
        dse::ExploreParallel(cs.spec, cs.augmentation, par_config, 4);
    std::fprintf(stderr,
                 "bench_runtime: 4 islands sequential %.2f s, threaded %.2f s "
                 "(speedup %.1fx)\n",
                 seq_s, par.wall_seconds, seq_s / par.wall_seconds);
    std::printf("\n4 islands x %zu evals: merged front %zu\n",
                island_config.evaluations, par.pareto.size());
  }

  // Seed robustness: the front metrics should be stable across MOEA seeds
  // (the paper reports a single run; we quantify the spread).
  std::printf("\nseed robustness (4 seeds x %llu evaluations):\n",
              static_cast<unsigned long long>(evals));
  std::vector<double> sizes, headlines;
  for (std::uint64_t s = 1; s <= 4; ++s) {
    dse::ExplorationConfig c = config;
    c.seed = s;
    const auto r = dse::ExploreParallel(cs.spec, cs.augmentation, c, 1);
    double best = -1.0;
    for (const auto& entry : r.pareto) {
      const auto& o = entry.objectives;
      if (o.test_quality_percent < 80.0) continue;
      const double base = o.monetary_cost - o.pattern_memory_cost;
      const double rel = 100.0 * o.pattern_memory_cost / base;
      if (best < 0 || rel < best) best = rel;
    }
    sizes.push_back(static_cast<double>(r.pareto.size()));
    if (best >= 0) headlines.push_back(best);
    std::printf("  seed %llu: front %4zu, cheapest >=80%%-quality overhead "
                "%+.2f %%\n",
                static_cast<unsigned long long>(s), r.pareto.size(), best);
  }
  auto mean_sd = [](const std::vector<double>& v) {
    double mean = 0, sd = 0;
    for (double x : v) mean += x;
    mean /= static_cast<double>(v.size());
    for (double x : v) sd += (x - mean) * (x - mean);
    sd = std::sqrt(sd / static_cast<double>(v.size()));
    return std::pair{mean, sd};
  };
  const auto [fm, fs] = mean_sd(sizes);
  std::printf("  front size %.0f +/- %.0f", fm, fs);
  if (!headlines.empty()) {
    const auto [hm, hs] = mean_sd(headlines);
    std::printf(";  headline overhead %.2f +/- %.2f %%", hm, hs);
  }
  std::printf("\n");
  return 0;
}
