// Ablation studies for the design choices the paper motivates:
//
//  (a) Pattern storage policy — forced all-local vs. forced all-gateway vs.
//      free (explored) placement of the BIST data tasks b^D. The free
//      policy must dominate both forced corners in the cost/shut-off plane.
//  (b) Test-data transfer — mirrored messages (paper §III-B, Eq. 1) vs. a
//      naive lowest-priority burst: the burst is faster on the wire but
//      perturbs the certified schedule (non-intrusiveness check fails).
//  (c) Download technology — classic CAN slots vs. CAN FD payloads in the
//      same slots (the paper's "extensible to other automotive field
//      buses" direction).
//
// Env: BISTDSE_ABL_EVALS (default 20000).
#include <cstdio>

#include "bench_util.hpp"
#include "can/mirroring.hpp"
#include "casestudy/casestudy.hpp"
#include "dse/decoder.hpp"
#include "dse/parallel.hpp"

using namespace bistdse;

namespace {

/// Decodes a policy-forced implementation: every ECU runs `profile_index`,
/// with its pattern data local or at the gateway.
dse::Objectives ForcedPolicy(const casestudy::CaseStudy& cs,
                             std::uint32_t profile_index, bool local) {
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
      const bool is_local = mappings[m].resource == ecu;
      g.phases[m] = is_local == local ? 1 : 0;
      g.priorities[m] = is_local == local ? 0.8 : 0.1;
    }
  }
  const auto impl = decoder.Decode(g);
  return dse::EvaluateImplementation(cs.spec, cs.augmentation, *impl);
}

void PrintRow(const char* policy, const dse::Objectives& o) {
  std::printf("  %-22s | %6.2f %% | %8.1f | %12.2f | %9llu | %11llu\n",
              policy, o.test_quality_percent, o.monetary_cost,
              o.shutoff_time_ms / 1e3,
              static_cast<unsigned long long>(o.gateway_memory_bytes),
              static_cast<unsigned long long>(o.distributed_memory_bytes));
}

}  // namespace

int main() {
  bench::PrintHeader(
      "Ablation — storage policy and transfer mechanism",
      "(a) all-local vs. all-gateway vs. freely explored b^D placement;\n"
      "(b) mirrored transfer (Eq. 1) vs. naive lowest-priority burst.");

  auto cs = casestudy::BuildCaseStudy();

  // --- (a) storage policy -------------------------------------------------
  std::printf("\n(a) storage policy, profile 4 (95.7 %%, 455 kB) on every "
              "ECU:\n\n");
  std::printf("  policy                 | quality  |   cost   | shut-off [s] "
              "|  gw [B]   |  local [B]\n");
  std::printf("  -----------------------+----------+----------+--------------"
              "+-----------+------------\n");
  const auto all_local = ForcedPolicy(cs, 3, true);
  const auto all_gateway = ForcedPolicy(cs, 3, false);
  PrintRow("all-local", all_local);
  PrintRow("all-gateway (shared)", all_gateway);

  const auto evals = bench::EnvU64("BISTDSE_ABL_EVALS", 20000);
  dse::ExplorationConfig config;
  config.evaluations = evals;
  config.population_size = 100;
  config.seed = 11;
  const auto result = dse::ExploreParallel(cs.spec, cs.augmentation, config, 1);

  // From the free exploration: cheapest and fastest points at >= 95 quality.
  const dse::ExplorationEntry* cheapest = nullptr;
  const dse::ExplorationEntry* fastest = nullptr;
  for (const auto& e : result.pareto) {
    if (e.objectives.test_quality_percent < 95.0) continue;
    if (!cheapest ||
        e.objectives.monetary_cost < cheapest->objectives.monetary_cost) {
      cheapest = &e;
    }
    if (!fastest ||
        e.objectives.shutoff_time_ms < fastest->objectives.shutoff_time_ms) {
      fastest = &e;
    }
  }
  if (cheapest) PrintRow("explored: cheapest", cheapest->objectives);
  if (fastest) PrintRow("explored: fastest", fastest->objectives);

  bool ok = true;
  if (cheapest && fastest) {
    ok &= cheapest->objectives.monetary_cost <= all_local.monetary_cost;
    ok &= fastest->objectives.shutoff_time_ms <= all_gateway.shutoff_time_ms;
  }
  std::printf("\n  check: exploration matches/beats each forced corner in "
              "its own discipline ... %s\n",
              ok ? "OK" : "VIOLATED");
  std::printf("  check: all-gateway is ~%.0fx cheaper in memory cost, "
              "all-local ~%.0fx faster to shut off\n",
              all_local.pattern_memory_cost /
                  std::max(1e-9, all_gateway.pattern_memory_cost),
              all_gateway.shutoff_time_ms /
                  std::max(1e-9, all_local.shutoff_time_ms));

  // --- (b) mirrored vs. burst transfer ------------------------------------
  std::printf("\n(b) transfer mechanism on a representative body bus:\n\n");
  can::CanBus bus("body", 500e3);
  std::vector<can::CanMessage> ecu_tx;
  {
    can::CanMessage m;
    m.name = "e1";
    m.id = 16;
    m.payload_bytes = 4;
    m.period_ms = 10;
    ecu_tx.push_back(m);
    m.name = "e2";
    m.id = 48;
    m.payload_bytes = 2;
    m.period_ms = 20;
    ecu_tx.push_back(m);
  }
  {
    can::CanMessage m;
    m.name = "other0";
    m.id = 0;
    m.payload_bytes = 2;
    m.period_ms = 5;
    bus.AddMessage(m);
    bus.AddMessage(ecu_tx[0]);
    m.name = "other32";
    m.id = 32;
    m.payload_bytes = 4;
    m.period_ms = 10;
    bus.AddMessage(m);
    bus.AddMessage(ecu_tx[1]);
    m.name = "other64";
    m.id = 64;
    m.payload_bytes = 2;
    m.period_ms = 20;
    bus.AddMessage(m);
  }

  const std::uint64_t data_bytes = 455061;  // profile 4
  const auto mirrored = can::MakeMirroredMessages(ecu_tx, 1);
  const auto mirrored_report = can::CheckNonIntrusiveness(bus, ecu_tx, mirrored);
  const double mirrored_ms = can::MirroredTransferTimeMs(data_bytes, ecu_tx);

  const auto burst = can::MakeBurstTransfer(data_bytes, 100, bus.BitrateBps());
  std::vector<can::CanMessage> burst_set = {burst.message};
  const auto burst_report = can::CheckNonIntrusiveness(bus, ecu_tx, burst_set);

  std::printf("  mechanism | transfer time [s] | non-intrusive | max WCRT "
              "increase [ms]\n");
  std::printf("  ----------+-------------------+---------------+------------"
              "----------\n");
  std::printf("  mirrored  | %17.1f | %13s | %.3f\n", mirrored_ms / 1e3,
              mirrored_report.non_intrusive ? "YES" : "NO",
              mirrored_report.max_wcrt_increase_ms);
  std::printf("  burst     | %17.1f | %13s | %.3f\n", burst.wire_time_ms / 1e3,
              burst_report.non_intrusive ? "YES" : "NO",
              burst_report.max_wcrt_increase_ms);

  const bool b_ok = mirrored_report.non_intrusive &&
                    !burst_report.non_intrusive &&
                    burst.wire_time_ms < mirrored_ms;
  std::printf("\n  check: burst is faster but intrusive; mirroring preserves "
              "every WCRT ... %s\n",
              b_ok ? "OK" : "VIOLATED");

  // --- (c) CAN FD mirrored downloads (future field bus) -------------------
  std::printf("\n(c) mirrored download technology, profile 4 all-gateway:\n\n");
  const auto classic_fd = ForcedPolicy(cs, 3, false);
  dse::SatDecoder fd_decoder(cs.spec, cs.augmentation);
  // Re-evaluate the same all-gateway design under FD slots.
  moea::Genotype g;
  g.priorities.assign(fd_decoder.GenotypeSize(), 0.5);
  g.phases.assign(fd_decoder.GenotypeSize(), 0);
  const auto mappings2 = cs.spec.Mappings();
  for (const auto& [ecu, programs] : cs.augmentation.programs_by_ecu) {
    const auto& prog = programs[3];
    for (std::size_t m : cs.spec.MappingsOfTask(prog.test_task)) {
      g.phases[m] = 1;
      g.priorities[m] = 0.9;
    }
    for (std::size_t m : cs.spec.MappingsOfTask(prog.data_task)) {
      const bool is_gw = mappings2[m].resource != ecu;
      g.phases[m] = is_gw ? 1 : 0;
      g.priorities[m] = is_gw ? 0.8 : 0.1;
    }
  }
  const auto fd_impl = fd_decoder.Decode(g);
  dse::EvaluationOptions fd_options;
  fd_options.use_can_fd = true;
  const auto fd_obj = dse::EvaluateImplementation(cs.spec, cs.augmentation,
                                                  *fd_impl, fd_options);
  std::printf("  classic CAN shut-off: %10.1f s\n",
              classic_fd.shutoff_time_ms / 1e3);
  std::printf("  CAN FD   shut-off:    %10.1f s (%.0fx faster)\n",
              fd_obj.shutoff_time_ms / 1e3,
              classic_fd.shutoff_time_ms / fd_obj.shutoff_time_ms);
  const bool c_ok = fd_obj.shutoff_time_ms < classic_fd.shutoff_time_ms / 4;
  std::printf("  check: FD payloads cut the download by the payload ratio "
              "... %s\n",
              c_ok ? "OK" : "VIOLATED");
  return ok && b_ok && c_ok ? 0 : 1;
}
