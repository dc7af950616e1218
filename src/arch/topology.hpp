// Parameterized E/E-architecture topology generation.
//
// The paper validates non-intrusive diagnosis integration on one industrial
// subnet (15 ECUs, 3 CAN buses, 36 Table-I profiles). This layer turns that
// hand-built graph into a *family*: an arch::TopologySpec captures every
// degree of freedom of the case-study construction — ECU/sensor/actuator
// counts, bus count and types (classic CAN and CAN FD segments), gateway
// fan-out, application-chain shapes, and the profile set of each CUT
// generation — and arch::GenerateTopology(spec, seed) emits a validated
// model::Specification plus the resource handles every downstream layer
// (DSE, session planning, net::SessionExecutor) consumes.
//
// casestudy::BuildCaseStudy / BuildFutureCaseStudy are two canonical specs
// run through this generator, bit-identical to the pre-refactor builders
// (pinned by content hashes and Pareto-front fingerprints in tests/).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bist/profile.hpp"
#include "model/implementation.hpp"
#include "model/specification.hpp"

namespace bistdse::arch {

/// One field-bus segment. `fd` marks a CAN-FD-capable segment: the frame
/// payload can grow to 64 bytes with the data phase running at a faster
/// bitrate (modeled analytically via dse::EvaluationOptions::use_can_fd;
/// the frame-level executor replays the nominal-rate schedule, which the FD
/// frame fits by construction).
struct BusSpec {
  double bitrate_bps = 500e3;
  bool fd = false;
  double cost = 1.0;
};

/// One sensor -> processing-chain -> actuator control application.
/// `sensors` / `actuators` index into the topology's sensor/actuator lists;
/// `processing` tasks map onto 2-3 ECU options of `home_bus` (occasionally
/// one cross-bus option, so some messages route through the gateway).
struct ChainShape {
  std::string name;
  int home_bus = 0;
  std::vector<int> sensors;
  std::vector<int> actuators;
  int processing = 4;
};

/// Full parameterization of a generated E/E architecture.
struct TopologySpec {
  std::string name = "generated";

  std::size_t num_ecus = 15;
  std::vector<BusSpec> buses = {{}, {}};
  std::size_t num_sensors = 4;
  std::size_t num_actuators = 2;
  /// The central gateway bridging all buses (fan-out = bus count). Only a
  /// single-bus, diagnosis-free topology may omit it: the BIST augmentation
  /// needs the gateway collector b^R, and a multi-bus graph without it is
  /// disconnected.
  bool has_gateway = true;

  // Cost model (the case study's virtual monetary metric).
  double gateway_base_cost = 25.0;
  double gateway_cost_per_byte = 1e-6;
  double ecu_base_cost = 12.0;
  double ecu_cost_step = 2.0;
  std::size_t ecu_cost_period = 5;  ///< ECU e costs base + step * (e % period).
  double ecu_cost_per_byte = 2e-5;
  double sensor_base_cost = 2.0;
  double actuator_base_cost = 3.0;

  /// Explicit bus of each sensor/actuator; empty = derived from the chains
  /// that reference them (each peripheral lands on its chain's home bus).
  std::vector<int> sensor_bus;
  std::vector<int> actuator_bus;

  /// Application chains; empty = `derived_chains` seeded shapes (0 = one per
  /// bus) with processing lengths in [chain_processing_min, _max] and
  /// sensors/actuators dealt round-robin.
  std::vector<ChainShape> chains;
  std::size_t derived_chains = 0;
  std::size_t chain_processing_min = 4;
  std::size_t chain_processing_max = 8;

  /// BIST profile set per CUT generation; ECU e belongs to generation
  /// e * profile_sets.size() / num_ecus (contiguous blocks, as in the
  /// heterogeneous future case study). One entry = homogeneous fleet; an
  /// empty *outer* vector skips the BIST augmentation entirely (a pure
  /// functional network); an empty *inner* set keeps the augmentation with
  /// zero programs (a diagnosis-free baseline).
  std::vector<std::vector<bist::BistProfile>> profile_sets;
};

/// A generated architecture: the specification plus every handle the
/// case-study consumers expect (casestudy::CaseStudy is an alias of this).
struct Topology {
  model::Specification spec;
  model::BistAugmentation augmentation;

  std::vector<model::ResourceId> ecus;
  std::vector<model::ResourceId> sensors;
  std::vector<model::ResourceId> actuators;
  std::vector<model::ResourceId> buses;
  model::ResourceId gateway = model::kInvalidId;
  /// CUT generation per ECU; populated only for heterogeneous fleets
  /// (profile_sets.size() > 1).
  std::map<model::ResourceId, std::uint32_t> cut_type_by_ecu;

  std::size_t functional_task_count = 0;
  std::size_t functional_message_count = 0;
};

/// Rejects degenerate specs with std::invalid_argument naming the offending
/// field: zero ECUs/buses, a gateway-less multi-bus or BIST-augmented
/// topology, peripheral bus assignments out of range, chains referencing
/// missing sensors/actuators or home buses without enough ECUs, and
/// inconsistent derived-chain bounds.
void ValidateTopologySpec(const TopologySpec& spec);

/// Builds the architecture deterministically from (spec, seed): equal
/// arguments reproduce the Specification bit-for-bit (pin with
/// model::ContentHash), different seeds vary the application mapping options
/// and derived shapes. Throws std::invalid_argument via ValidateTopologySpec
/// on degenerate specs.
Topology GenerateTopology(const TopologySpec& spec, std::uint64_t seed);

/// Number of FD-capable segments in `spec` (corpus bookkeeping).
std::size_t CountFdBuses(const TopologySpec& spec);

/// The next CUT generation of a profile set: a larger die of the same
/// family — x3 pattern data, x2.5 session time, slightly higher ceiling
/// coverage (the future case study's derivation, shared with the corpus
/// sampler).
std::vector<bist::BistProfile> NextGenerationProfiles(
    std::vector<bist::BistProfile> profiles);

}  // namespace bistdse::arch
