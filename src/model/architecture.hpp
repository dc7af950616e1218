// Architecture graph g_A = (R, E_A): ECUs, sensors, actuators, buses and the
// central gateway, with bidirectional communication links.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "model/types.hpp"

namespace bistdse::model {

struct Resource {
  std::string name;
  ResourceKind kind = ResourceKind::Ecu;
  double base_cost = 0.0;              ///< Monetary cost when allocated.
  double cost_per_byte = 0.0;          ///< Pattern-memory cost (ECU/gateway).
  double bus_bitrate_bps = 500e3;      ///< Meaningful for buses.
};

class ArchitectureGraph {
 public:
  ResourceId AddResource(Resource resource);

  /// Adds a bidirectional link (e.g. ECU <-> bus, bus <-> gateway).
  void AddLink(ResourceId a, ResourceId b);

  std::size_t ResourceCount() const { return resources_.size(); }
  const Resource& GetResource(ResourceId id) const { return resources_[id]; }
  std::span<const ResourceId> Neighbors(ResourceId id) const {
    return adjacency_[id];
  }
  bool Linked(ResourceId a, ResourceId b) const;

  /// Breadth-first tree rooted at `source`, written into `pred` (one entry
  /// per resource): pred[r] is r's predecessor on a shortest path from
  /// `source`, pred[source] == source, and kInvalidId marks unreachable
  /// resources. Neighbors are visited in ascending id order, so ties break
  /// toward the lowest id.
  void BfsTree(ResourceId source, std::span<ResourceId> pred) const;

  /// Shortest path a -> b (inclusive of both endpoints) in BfsTree(a);
  /// nullopt when disconnected. Deterministic (lowest-id tie-break).
  std::optional<std::vector<ResourceId>> ShortestPath(ResourceId a,
                                                      ResourceId b) const;

  std::vector<ResourceId> ResourcesOfKind(ResourceKind kind) const;

  /// The unique gateway resource; throws std::logic_error if there is none
  /// or more than one.
  ResourceId Gateway() const;

 private:
  std::vector<Resource> resources_;
  std::vector<std::vector<ResourceId>> adjacency_;
};

/// Every ShortestPath answer of one architecture, precomputed as one BfsTree
/// per source resource, so routing an implementation runs no search.
class RouteTable {
 public:
  explicit RouteTable(const ArchitectureGraph& arch);

  /// Appends the hops of ShortestPath(from, to) after `from` to `path`.
  /// Returns false, leaving `path` untouched, when `to` is unreachable.
  bool AppendPath(ResourceId from, ResourceId to,
                  std::vector<ResourceId>& path) const;

 private:
  std::size_t resources_ = 0;
  /// BfsTree(from) at [from * resources_, (from + 1) * resources_).
  std::vector<ResourceId> pred_;
};

}  // namespace bistdse::model
