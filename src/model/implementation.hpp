// Implementation x = (A, B, W): allocation, binding, routing — one point of
// the design space — plus the feasibility validator implementing the
// semantics of the paper's ILP constraints (Eqs. 2a-2h, 3a, 3b) and the
// functional constraints of [17].
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "model/specification.hpp"

namespace bistdse::model {

struct Implementation {
  /// A: allocation flag per resource.
  std::vector<bool> allocation;
  /// B: selected mapping indices (into Specification::Mappings()).
  std::vector<std::size_t> binding;
  /// W: per routed message, the ordered resource path from the sender's
  /// resource to the receiver's resource (inclusive). Unbound messages are
  /// absent.
  std::map<MessageId, std::vector<ResourceId>> routing;

  /// Resource a task is bound to, or nullopt if unbound.
  std::optional<ResourceId> BoundResource(const Specification& spec,
                                          TaskId task) const;
  bool IsBound(const Specification& spec, TaskId task) const {
    return BoundResource(spec, task).has_value();
  }

  /// BoundResource of every task in one pass over the binding: entry t is
  /// task t's resource, or kInvalidId when t is unbound. A task bound twice
  /// keeps its first binding, as in BoundResource.
  std::vector<ResourceId> BoundResources(const Specification& spec) const;
};

/// Routes every message whose sender and receivers are bound, along the
/// shortest paths of `routes` (built from spec.Architecture()). Returns
/// false if some required route does not exist (disconnected architecture)
/// — the implementation is then infeasible. Also fills the allocation from
/// bound and routed resources.
bool CompleteRoutingAndAllocation(const Specification& spec,
                                  const RouteTable& routes,
                                  Implementation& impl);

/// Checks all feasibility constraints; returns human-readable violations
/// (empty vector == feasible implementation):
///  * every mandatory task bound exactly once; diagnosis tasks at most once
///    (Eq. 2a);
///  * routes start at the sender's resource (Eq. 2b) and reach every bound
///    receiver (Eq. 2c);
///  * routes are simple, cycle-free, adjacency-following paths (Eqs. 2d-2g);
///  * no resource hosts only diagnosis tasks (Eq. 2h);
///  * at most one BIST test task per ECU (Eq. 3a);
///  * b^D bound if and only if its b^T is bound (Eq. 3b);
///  * allocation covers every bound or routed resource.
std::vector<std::string> ValidateImplementation(const Specification& spec,
                                                const Implementation& impl);

}  // namespace bistdse::model
