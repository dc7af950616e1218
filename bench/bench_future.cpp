// Extension study: BIST integration into a forward-looking heterogeneous
// subnet — 20 ECUs of two silicon generations on 4 buses (one high-speed
// backbone). Gateway pattern memory is shared only within a generation, so
// the central-storage economics of the paper's homogeneous case study
// weaken exactly by the number of CUT types.
//
// Env: BISTDSE_FUT_EVALS (default 30000).
#include <algorithm>
#include <cstdio>

#include "bench_util.hpp"
#include "casestudy/casestudy.hpp"
#include "dse/decoder.hpp"
#include "dse/parallel.hpp"

using namespace bistdse;

namespace {

/// Forced all-gateway design with profile `p` everywhere; returns gateway
/// memory bytes.
std::uint64_t ForcedGatewayBytes(const casestudy::CaseStudy& cs,
                                 std::uint32_t profile_index) {
  dse::SatDecoder decoder(cs.spec, cs.augmentation, true);
  moea::Genotype g;
  g.priorities.assign(decoder.GenotypeSize(), 0.5);
  g.phases.assign(decoder.GenotypeSize(), 0);
  const auto mappings = cs.spec.Mappings();
  for (const auto& [ecu, programs] : cs.augmentation.programs_by_ecu) {
    const auto& prog = programs[profile_index];
    for (std::size_t m : cs.spec.MappingsOfTask(prog.test_task)) {
      g.phases[m] = 1;
      g.priorities[m] = 0.9;
    }
    for (std::size_t m : cs.spec.MappingsOfTask(prog.data_task)) {
      const bool is_gw = mappings[m].resource == cs.gateway;
      g.phases[m] = is_gw ? 1 : 0;
      g.priorities[m] = is_gw ? 0.8 : 0.1;
    }
  }
  const auto impl = decoder.Decode(g);
  return dse::EvaluateImplementation(cs.spec, cs.augmentation, *impl)
      .gateway_memory_bytes;
}

}  // namespace

int main() {
  bench::PrintHeader(
      "Extension — heterogeneous fleet (two CUT generations, 4 buses)",
      "Gateway pattern memory is shared per generation only; the exploration\n"
      "balances per-generation profiles, storage and shut-off.");

  auto cs = casestudy::BuildFutureCaseStudy();
  std::printf("\nsubnet: %zu ECUs (2 generations), %zu sensors, %zu actuators,"
              " %zu buses; %zu tasks / %zu messages functional\n",
              cs.ecus.size(), cs.sensors.size(), cs.actuators.size(),
              cs.buses.size(), cs.functional_task_count,
              cs.functional_message_count);

  // Sharing economics: same profile 4 at the gateway costs exactly two
  // copies here (one per generation) vs one in the homogeneous case study.
  auto homogeneous = casestudy::BuildCaseStudy();
  const auto gw_hetero = ForcedGatewayBytes(cs, 3);
  const auto gw_homo = ForcedGatewayBytes(homogeneous, 3);
  std::printf("\nall-gateway, profile 4 everywhere:\n");
  std::printf("  homogeneous 15-ECU subnet: %llu B (one shared copy)\n",
              static_cast<unsigned long long>(gw_homo));
  std::printf("  heterogeneous 20-ECU subnet: %llu B (one copy per "
              "generation; gen1 die is 3x)\n",
              static_cast<unsigned long long>(gw_hetero));

  const auto evals = bench::EnvU64("BISTDSE_FUT_EVALS", 30000);
  dse::ExplorationConfig config;
  config.evaluations = evals;
  config.population_size = 120;
  config.seed = 2;
  const auto result = dse::ExploreParallel(cs.spec, cs.augmentation, config, 1);

  // Wall time goes to stderr: stdout is pinned byte for byte
  // (bench/future.expected).
  std::fprintf(stderr, "bench_future: exploration took %.1f s\n",
               result.wall_seconds);
  std::printf("\nexplored %zu implementations -> %zu on the front\n",
              result.evaluations, result.pareto.size());

  const dse::ExplorationEntry* headline = nullptr;
  for (const auto& e : result.pareto) {
    if (e.objectives.test_quality_percent < 80.0) continue;
    if (!headline ||
        e.objectives.monetary_cost < headline->objectives.monetary_cost) {
      headline = &e;
    }
  }
  bool ok = headline != nullptr;
  if (headline) {
    const auto& o = headline->objectives;
    const double base = o.monetary_cost - o.pattern_memory_cost;
    std::printf("\nheadline: %.1f %% quality at +%.2f %% cost (gw %llu B, "
                "local %llu B)\n",
                o.test_quality_percent,
                100.0 * o.pattern_memory_cost / base,
                static_cast<unsigned long long>(o.gateway_memory_bytes),
                static_cast<unsigned long long>(o.distributed_memory_bytes));
    ok &= o.pattern_memory_cost / base < 0.15;
  }

  std::printf("\nshape checks:\n");
  std::printf("  per-generation sharing doubles+ the gateway footprint vs "
              "homogeneous ... %s\n",
              gw_hetero >= 3 * gw_homo ? "OK" : "VIOLATED");
  std::printf("  heterogeneous headline stays low-overhead ... %s\n",
              ok ? "OK" : "VIOLATED");
  return (gw_hetero >= 3 * gw_homo && ok) ? 0 : 1;
}
