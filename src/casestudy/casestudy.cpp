#include "casestudy/casestudy.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>

namespace bistdse::casestudy {

std::vector<bist::BistProfile> PaperTableI() {
  // profile, #PRPs, c(b) [%], l(b) [ms], s(b) [Bytes] — Table I, verbatim.
  struct Row {
    std::uint32_t n;
    std::uint64_t prps;
    double c, l;
    std::uint64_t s;
  };
  static constexpr std::array<Row, 36> kRows = {{
      {1, 500, 99.83, 4.87, 2399185},    {2, 500, 99.84, 4.87, 2401554},
      {3, 500, 98.17, 2.81, 994156},     {4, 500, 95.73, 1.71, 455061},
      {5, 1000, 99.84, 5.79, 2370883},   {6, 1000, 99.84, 5.74, 2340080},
      {7, 1000, 98.15, 3.66, 918895},    {8, 1000, 96.13, 2.67, 455193},
      {9, 5000, 99.87, 13.37, 2300488},  {10, 5000, 99.87, 13.31, 2263762},
      {11, 5000, 98.21, 11.23, 772886},  {12, 5000, 95.61, 10.25, 311258},
      {13, 10000, 99.87, 22.93, 2261705}, {14, 10000, 99.87, 22.85, 2210762},
      {15, 10000, 98.06, 20.61, 834119}, {16, 10000, 95.97, 19.75, 304549},
      {17, 20000, 99.88, 42.11, 2216126}, {18, 20000, 99.88, 42.05, 2180585},
      {19, 20000, 97.62, 39.74, 757737}, {20, 20000, 95.16, 38.88, 229353},
      {21, 50000, 99.87, 99.59, 2054510}, {22, 50000, 99.87, 99.53, 2018968},
      {23, 50000, 97.93, 97.24, 610337}, {24, 50000, 96.11, 96.63, 231227},
      {25, 100000, 99.87, 195.84, 2054081},
      {26, 100000, 99.87, 195.74, 1994845},
      {27, 100000, 98.10, 193.49, 611093},
      {28, 100000, 95.36, 192.76, 158531},
      {29, 200000, 99.89, 388.06, 1888552},
      {30, 200000, 99.89, 387.99, 1843533},
      {31, 200000, 98.13, 385.87, 540342},
      {32, 200000, 95.99, 385.26, 162417},
      {33, 500000, 99.89, 965.35, 1767609},
      {34, 500000, 99.89, 965.31, 1741544},
      {35, 500000, 98.28, 963.25, 475080},
      {36, 500000, 96.69, 962.76, 171792},
  }};
  std::vector<bist::BistProfile> profiles;
  profiles.reserve(kRows.size());
  for (const Row& r : kRows) {
    bist::BistProfile p;
    p.profile_number = r.n;
    p.num_random_patterns = r.prps;
    p.fault_coverage_percent = r.c;
    p.runtime_ms = r.l;
    p.data_bytes = r.s;
    profiles.push_back(p);
  }
  return profiles;
}

std::vector<bist::BistProfile> ScaledTableI(double data_scale,
                                            std::size_t count) {
  auto profiles = PaperTableI();
  if (count < profiles.size()) profiles.resize(count);
  for (bist::BistProfile& p : profiles) {
    p.data_bytes = std::max<std::uint64_t>(
        1, bist::ScaledDataBytes(static_cast<double>(p.data_bytes) * data_scale,
                                 "data_scale"));
  }
  return profiles;
}

bist::StumpsConfig PaperStumpsConfig() {
  bist::StumpsConfig cfg;
  cfg.num_scan_chains = 100;
  cfg.max_chain_length = 77;
  cfg.test_frequency_hz = 40e6;
  cfg.signature_window = 32;
  cfg.prpg_degree = 32;
  return cfg;
}

netlist::RandomCircuitSpec ScaledCutSpec(std::uint64_t seed) {
  netlist::RandomCircuitSpec spec;
  spec.num_inputs = 32;
  spec.num_outputs = 32;
  spec.num_flops = 320;   // ~1/24 of the paper CUT's scan length budget
  spec.num_gates = 3000;
  spec.num_hard_blocks = 10;
  spec.hard_block_width = 12;
  spec.seed = seed;
  return spec;
}

namespace {

/// Table I, materialized once per process for the defaulted builders.
const std::vector<bist::BistProfile>& CachedTableI() {
  static const std::vector<bist::BistProfile> kTable = PaperTableI();
  return kTable;
}

}  // namespace

arch::TopologySpec CaseStudySpec(
    const std::vector<bist::BistProfile>& profiles) {
  arch::TopologySpec spec;
  spec.name = "paper-subnet";
  // 3 CAN buses, gateway, 15 ECUs (5 per bus), 9 sensors, 5 actuators.
  spec.num_ecus = 15;
  spec.buses = {{}, {}, {}};
  spec.num_sensors = 9;
  spec.num_actuators = 5;
  // Sensors per bus: 5 on can0 (apps 0 and 3), 2 on can1, 2 on can2.
  spec.sensor_bus = {0, 0, 0, 1, 1, 2, 2, 0, 0};
  spec.actuator_bus = {0, 0, 1, 2, 0};
  // 4 control chains, 45 tasks / 41 messages total.
  spec.chains = {
      {"engine", 0, {0, 1, 2}, {0, 1}, 8},
      {"chassis", 1, {3, 4}, {2}, 8},
      {"body", 2, {5, 6}, {3}, 8},
      {"comfort", 0, {7, 8}, {4}, 7},
  };
  spec.profile_sets = {profiles};  // every ECU carries the full set
  return spec;
}

CaseStudy BuildCaseStudy(const std::vector<bist::BistProfile>& profiles,
                         std::uint64_t seed) {
  CaseStudy cs = arch::GenerateTopology(CaseStudySpec(profiles), seed);
  if (cs.functional_task_count != 45 || cs.functional_message_count != 41) {
    throw std::logic_error("case study counts drifted from the paper");
  }
  return cs;
}

CaseStudy BuildCaseStudy(std::uint64_t seed) {
  return BuildCaseStudy(CachedTableI(), seed);
}

arch::TopologySpec FutureCaseStudySpec(
    const std::vector<bist::BistProfile>& gen0,
    std::vector<bist::BistProfile> gen1) {
  if (gen1.empty()) gen1 = arch::NextGenerationProfiles(gen0);

  arch::TopologySpec spec;
  spec.name = "future-subnet";
  spec.num_ecus = 20;
  spec.buses = {{}, {}, {}, {}};
  spec.buses[3].bitrate_bps = 1e6;  // high-speed backbone segment
  spec.gateway_base_cost = 40.0;
  spec.ecu_base_cost = 11.0;
  spec.num_sensors = 12;
  spec.num_actuators = 8;
  spec.sensor_bus = {0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 3, 3};
  spec.actuator_bus = {0, 0, 1, 1, 1, 2, 2, 3};
  spec.chains = {
      {"powertrain", 0, {0, 1}, {0}, 6},
      {"transmission", 0, {2, 3}, {1}, 6},
      {"chassis", 1, {4, 5}, {2, 3}, 7},
      {"steering", 1, {6, 7}, {4}, 6},
      {"body", 2, {8, 9}, {5, 6}, 7},
      {"adas", 3, {10, 11}, {7}, 6},
  };
  // Two silicon generations in contiguous blocks: ECUs 0-9 are gen 0,
  // 10-19 gen 1. Gateway pattern memory is shared only within a generation.
  spec.profile_sets = {gen0, std::move(gen1)};
  return spec;
}

CaseStudy BuildFutureCaseStudy(const std::vector<bist::BistProfile>& gen0,
                               std::vector<bist::BistProfile> gen1,
                               std::uint64_t seed) {
  return arch::GenerateTopology(FutureCaseStudySpec(gen0, std::move(gen1)),
                                seed);
}

CaseStudy BuildFutureCaseStudy(std::uint64_t seed) {
  return BuildFutureCaseStudy(CachedTableI(), {}, seed);
}

}  // namespace bistdse::casestudy
