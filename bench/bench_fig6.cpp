// Reproduces Fig. 6: gateway vs. distributed pattern memory and shut-off
// time (log scale) for seven representative implementations of the Fig. 5
// front. The paper picks implementations 1, 3, 7 with nearly identical test
// quality (trading shut-off time against memory cost) and implementations
// 2, 4, 5, 6 with higher test quality, where the gateway share drops because
// the mirrored transfer cannot move the data in reasonable time for some
// ECUs.
//
// Env: BISTDSE_EVALS (default 60000), BISTDSE_SEED (default 1).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "casestudy/casestudy.hpp"
#include "dse/parallel.hpp"

using namespace bistdse;

namespace {

void PrintBar(const char* label, double value, double max_value, int width) {
  const int n = max_value > 0
                    ? static_cast<int>(value / max_value * width + 0.5)
                    : 0;
  std::printf("    %-10s |", label);
  for (int i = 0; i < n; ++i) std::printf("#");
  std::printf("\n");
}

}  // namespace

int main() {
  bench::PrintHeader(
      "Fig. 6 — gateway vs. distributed diagnosis memory, shut-off (log s)",
      "Seven representatives: three of (nearly) equal test quality trading\n"
      "memory cost against shut-off time, four of higher quality with a\n"
      "lower gateway share (communication demands cap central storage).");

  const auto evals = bench::EnvU64("BISTDSE_EVALS", 60000);
  const auto seed = bench::EnvU64("BISTDSE_SEED", 1);

  auto cs = casestudy::BuildCaseStudy();
  dse::ExplorationConfig config;
  config.evaluations = evals;
  config.population_size = 150;
  config.mutation_rate = 3.0 / 2236.0;
  config.seed = seed;
  const auto result = dse::ExploreParallel(cs.spec, cs.augmentation, config, 1);
  std::printf("\n(front of %zu implementations from %zu evaluations)\n\n",
              result.pareto.size(), result.evaluations);

  // Selection: bucket the front by quality; from the densest quality band
  // pick 3 spanning the gateway-share spectrum; from higher-quality bands
  // pick 4 more.
  std::vector<const dse::ExplorationEntry*> front;
  for (const auto& e : result.pareto) {
    if (e.objectives.ecus_with_bist > 0) front.push_back(&e);
  }
  if (front.size() < 7) {
    std::printf("front too small, raise BISTDSE_EVALS\n");
    return 1;
  }
  std::sort(front.begin(), front.end(), [](const auto* a, const auto* b) {
    return a->objectives.test_quality_percent <
           b->objectives.test_quality_percent;
  });
  const double q_median =
      front[front.size() / 2]->objectives.test_quality_percent;

  // Iso-quality band around the median.
  std::vector<const dse::ExplorationEntry*> band;
  for (const auto* e : front) {
    if (std::abs(e->objectives.test_quality_percent - q_median) < 0.35) {
      band.push_back(e);
    }
  }
  std::sort(band.begin(), band.end(), [](const auto* a, const auto* b) {
    return a->objectives.gateway_memory_bytes <
           b->objectives.gateway_memory_bytes;
  });
  std::vector<const dse::ExplorationEntry*> chosen;
  if (band.size() >= 3) {
    chosen.push_back(band.front());
    chosen.push_back(band[band.size() / 2]);
    chosen.push_back(band.back());
  } else {
    chosen.assign(front.begin(), front.begin() + 3);
  }
  // Four higher-quality picks, spread over the top quartile.
  const std::size_t top_begin = front.size() * 3 / 4;
  for (int k = 0; k < 4; ++k) {
    const std::size_t idx =
        top_begin + k * (front.size() - 1 - top_begin) / 3;
    chosen.push_back(front[idx]);
  }

  double max_mem = 0;
  for (const auto* e : chosen) {
    max_mem = std::max(max_mem,
                       static_cast<double>(e->objectives.gateway_memory_bytes +
                                           e->objectives.distributed_memory_bytes));
  }

  std::printf("  impl | quality  |   cost  | shut-off [s] | gateway [B] | "
              "distributed [B] | gw share\n");
  std::printf("  -----+----------+---------+--------------+-------------+"
              "-----------------+---------\n");
  for (std::size_t i = 0; i < chosen.size(); ++i) {
    const auto& o = chosen[i]->objectives;
    const double total = static_cast<double>(o.gateway_memory_bytes +
                                             o.distributed_memory_bytes);
    std::printf("  %4zu | %6.2f %% | %7.1f | %12.2f | %11llu | %15llu | "
                "%6.1f %%\n",
                i + 1, o.test_quality_percent, o.monetary_cost,
                o.shutoff_time_ms / 1e3,
                static_cast<unsigned long long>(o.gateway_memory_bytes),
                static_cast<unsigned long long>(o.distributed_memory_bytes),
                total > 0 ? 100.0 * o.gateway_memory_bytes / total : 0.0);
  }

  std::printf("\n  memory bars (gw = gateway, dist = distributed):\n");
  for (std::size_t i = 0; i < chosen.size(); ++i) {
    const auto& o = chosen[i]->objectives;
    std::printf("  impl %zu  (shut-off 10^%.1f s)\n", i + 1,
                o.shutoff_time_ms > 0 ? std::log10(o.shutoff_time_ms / 1e3)
                                      : -3.0);
    PrintBar("gateway", static_cast<double>(o.gateway_memory_bytes), max_mem,
             50);
    PrintBar("distrib", static_cast<double>(o.distributed_memory_bytes),
             max_mem, 50);
  }

  // The paper's qualitative claims for this figure.
  std::printf("\nshape checks:\n");
  const auto& a = chosen[0]->objectives;  // iso-quality, lowest gw share
  const auto& c = chosen[2]->objectives;  // iso-quality, highest gw share
  const bool tradeoff = a.monetary_cost >= c.monetary_cost &&
                        a.shutoff_time_ms <= c.shutoff_time_ms;
  std::printf("  within the iso-quality trio, more gateway storage => lower "
              "cost, higher shut-off ... %s\n",
              tradeoff ? "OK" : "VIOLATED");
  return tradeoff ? 0 : 1;
}
