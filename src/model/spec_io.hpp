// Plain-text serialization of specifications — the interchange format of
// the CLI (`bistdse_cli explore --spec my_subnet.spec`).
//
// Line-oriented, '#' comments, whitespace-separated:
//
//   resource <name> <ecu|gateway|bus|sensor|actuator> <base_cost>
//            <cost_per_byte> [bitrate_bps]
//   link     <resource> <resource>
//   task     <name>
//   message  <name> <sender_task> <receiver_task>[,<receiver>...]
//            <payload_bytes> <period_ms>
//   mapping  <task> <resource>
//   profile  <ecu> <number> <prps> <coverage_pct> <runtime_ms> <data_bytes>
//   cuttype  <ecu> <type>
//
// Profiles and cut types feed AugmentWithBist after parsing.
#pragma once

#include <iosfwd>
#include <map>
#include <string>

#include "bist/profile.hpp"
#include "model/implementation.hpp"
#include "model/specification.hpp"

namespace bistdse::model {

struct ParsedSpec {
  Specification spec;
  std::map<ResourceId, std::vector<bist::BistProfile>> profiles;
  std::map<ResourceId, std::uint32_t> cut_types;

  /// Runs AugmentWithBist over the parsed profiles and validates.
  BistAugmentation Augment() {
    auto augmentation = AugmentWithBist(spec, profiles, cut_types);
    spec.Validate();
    return augmentation;
  }
};

/// Parses the text format. Throws std::runtime_error with a line number on
/// malformed input, unknown names, or forward references. Numbers are read
/// strictly (util/parse.hpp); costs and runtimes must be >= 0, coverage in
/// [0, 100], and a token after a line's last field is an error.
ParsedSpec ParseSpec(std::istream& in);
ParsedSpec ParseSpecFile(const std::string& path);

/// Writes `spec` (without BIST augmentation tasks — those are regenerated
/// from the profile lines) plus the given profiles/cut types.
void WriteSpec(const Specification& spec,
               const std::map<ResourceId, std::vector<bist::BistProfile>>& profiles,
               const std::map<ResourceId, std::uint32_t>& cut_types,
               std::ostream& out);

/// Writes an implementation as name-based `bind <task> <resource>` lines
/// (routing is derived on load). Robust against reordering of mapping
/// options.
void WriteImplementation(const Specification& spec, const Implementation& impl,
                         std::ostream& out);

/// Parses an implementation against `spec`; routing and allocation are
/// completed deterministically. Throws std::runtime_error on unknown names
/// or unroutable bindings.
Implementation ReadImplementation(const Specification& spec, std::istream& in);

}  // namespace bistdse::model
