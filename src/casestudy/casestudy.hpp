// The industrial case study of paper §IV: an automotive E/E-architecture
// subnet with 4 control applications (45 tasks, 41 messages), 15 ECUs,
// 9 sensors, 5 actuators on 3 CAN buses bridged by a central gateway, and
// 36 BIST profiles per ECU (Table I).
//
// Both case studies are canonical arch::TopologySpecs run through
// arch::GenerateTopology — the same generator that samples the corpus
// families (arch/corpus.hpp). Their construction is pinned bit-identical to
// the historical hand-built graphs by content hashes and Pareto-front
// fingerprints in tests/test_casestudy.cpp / test_future_casestudy.cpp /
// test_arch.cpp.
#pragma once

#include <cstdint>
#include <vector>

#include "arch/topology.hpp"
#include "bist/profile.hpp"
#include "bist/stumps.hpp"
#include "netlist/random_circuit.hpp"

namespace bistdse::casestudy {

/// Table I of the paper, verbatim: 36 mixed-mode BIST profiles of the
/// Infineon automotive microprocessor CUT (371,900 collapsed faults,
/// 100 scan chains, max length 77, 40 MHz).
std::vector<bist::BistProfile> PaperTableI();

/// Table I with every pattern-data size scaled by `data_scale` (runtime and
/// coverage untouched), truncated to the first `count` profiles. The
/// frame-accurate session executor uses this to keep full-subnet simulations
/// fast while preserving the profiles' relative shape; data_scale = 1 is
/// Table I itself. Throws std::invalid_argument naming data_scale when a
/// scaled size is negative or exceeds 2^64-1 bytes.
std::vector<bist::BistProfile> ScaledTableI(double data_scale,
                                            std::size_t count = 36);

/// Number of collapsed faults of the paper's CUT.
inline constexpr std::uint64_t kPaperCollapsedFaults = 371900;

/// STUMPS configuration matching the paper's CUT (100 chains x <= 77 cells,
/// 40 MHz).
bist::StumpsConfig PaperStumpsConfig();

/// Scaled-down synthetic stand-in for the paper's CUT: same scan geometry
/// ratio and testability profile (random-pattern-testable bulk + decoder
/// blocks needing deterministic top-up), sized so that profiling all
/// 36 Table-I configurations stays laptop-feasible.
netlist::RandomCircuitSpec ScaledCutSpec(std::uint64_t seed = 1);

/// The case-study handle is the generator's topology bundle: specification,
/// augmentation, and every resource id downstream layers consume.
using CaseStudy = arch::Topology;

/// The canonical TopologySpec of the paper subnet, carrying `profiles` on
/// every ECU. Exposed so corpus tooling can perturb the paper family.
arch::TopologySpec CaseStudySpec(
    const std::vector<bist::BistProfile>& profiles);

/// Builds the case-study specification from explicit profiles (pass
/// profiles produced by bist::ProfileGenerator to run the whole flow
/// end-to-end on the synthetic CUT).
CaseStudy BuildCaseStudy(const std::vector<bist::BistProfile>& profiles,
                         std::uint64_t seed = 42);

/// Table-I default. The table is materialized once per process (hoisted out
/// of the old `= PaperTableI()` default argument, which rebuilt all 36
/// profiles at every defaulted call site).
CaseStudy BuildCaseStudy(std::uint64_t seed = 42);

/// The canonical TopologySpec of the forward-looking heterogeneous subnet.
arch::TopologySpec FutureCaseStudySpec(
    const std::vector<bist::BistProfile>& gen0,
    std::vector<bist::BistProfile> gen1);

/// A forward-looking heterogeneous subnet (beyond the paper's case study):
/// 20 ECUs of two CUT generations on 4 CAN buses (one of them a high-speed
/// backbone segment), 12 sensors, 8 actuators, 6 control applications.
/// Gateway pattern memory is shared only within a CUT generation; an empty
/// `gen1` derives the second generation from `gen0` via
/// arch::NextGenerationProfiles (larger die: x3 pattern data, x2.5 session
/// time).
CaseStudy BuildFutureCaseStudy(const std::vector<bist::BistProfile>& gen0,
                               std::vector<bist::BistProfile> gen1 = {},
                               std::uint64_t seed = 43);

/// Table-I default of the future subnet (same per-process hoisting as the
/// seed-only BuildCaseStudy overload).
CaseStudy BuildFutureCaseStudy(std::uint64_t seed = 43);

}  // namespace bistdse::casestudy
