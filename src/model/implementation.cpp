#include "model/implementation.hpp"

#include <algorithm>
#include <set>

namespace bistdse::model {

std::optional<ResourceId> Implementation::BoundResource(
    const Specification& spec, TaskId task) const {
  for (std::size_t m : binding) {
    if (spec.Mappings()[m].task == task) return spec.Mappings()[m].resource;
  }
  return std::nullopt;
}

std::vector<ResourceId> Implementation::BoundResources(
    const Specification& spec) const {
  std::vector<ResourceId> bound_at(spec.Application().TaskCount(),
                                   kInvalidId);
  for (std::size_t m : binding) {
    const MappingOption& option = spec.Mappings()[m];
    if (bound_at[option.task] == kInvalidId) {
      bound_at[option.task] = option.resource;
    }
  }
  return bound_at;
}

bool CompleteRoutingAndAllocation(const Specification& spec,
                                  const RouteTable& routes,
                                  Implementation& impl) {
  const ApplicationGraph& app = spec.Application();
  const std::vector<ResourceId> bound_at = impl.BoundResources(spec);

  impl.routing.clear();
  for (MessageId c = 0; c < app.MessageCount(); ++c) {
    const Message& msg = app.GetMessage(c);
    const ResourceId src = bound_at[msg.sender];
    if (src == kInvalidId) continue;  // optional sender unbound: inactive
    // Route to the (first bound) receiver; all receivers must lie on the
    // path for multicast messages.
    std::vector<ResourceId> path{src};
    for (TaskId recv : msg.receivers) {
      const ResourceId dst = bound_at[recv];
      if (dst == kInvalidId) {
        if (app.IsMandatory(recv)) return false;  // mandatory receiver unbound
        continue;
      }
      if (std::find(path.begin(), path.end(), dst) != path.end()) continue;
      if (!routes.AppendPath(path.back(), dst, path)) return false;
    }
    impl.routing.emplace_hint(impl.routing.end(), c, std::move(path));
  }

  impl.allocation.assign(spec.Architecture().ResourceCount(), false);
  for (std::size_t m : impl.binding) {
    impl.allocation[spec.Mappings()[m].resource] = true;
  }
  for (const auto& [c, path] : impl.routing) {
    for (ResourceId r : path) impl.allocation[r] = true;
  }
  return true;
}

std::vector<std::string> ValidateImplementation(const Specification& spec,
                                                const Implementation& impl) {
  std::vector<std::string> violations;
  const ApplicationGraph& app = spec.Application();
  const ArchitectureGraph& arch = spec.Architecture();
  const auto mappings = spec.Mappings();

  // Binding multiplicity (functional: exactly once; Eq. 2a: at most once).
  std::vector<std::uint32_t> bound_count(app.TaskCount(), 0);
  for (std::size_t m : impl.binding) {
    if (m >= mappings.size()) {
      violations.push_back("binding references unknown mapping option");
      continue;
    }
    ++bound_count[mappings[m].task];
  }
  for (TaskId t = 0; t < app.TaskCount(); ++t) {
    const Task& task = app.GetTask(t);
    if (app.IsMandatory(t) && bound_count[t] != 1) {
      violations.push_back("mandatory task '" + task.name +
                           "' bound " + std::to_string(bound_count[t]) +
                           " times (must be 1)");
    }
    if (!app.IsMandatory(t) && bound_count[t] > 1) {
      violations.push_back("diagnosis task '" + task.name +
                           "' bound more than once (Eq. 2a)");
    }
  }

  // Routing constraints (Eqs. 2b-2g).
  for (MessageId c = 0; c < app.MessageCount(); ++c) {
    const Message& msg = app.GetMessage(c);
    const auto src = impl.BoundResource(spec, msg.sender);
    const auto route_it = impl.routing.find(c);

    if (!src) {
      if (route_it != impl.routing.end()) {
        violations.push_back("message '" + msg.name +
                             "' routed although its sender is unbound");
      }
      continue;
    }
    if (route_it == impl.routing.end()) {
      violations.push_back("message '" + msg.name + "' of bound sender not routed");
      continue;
    }
    const auto& path = route_it->second;
    if (path.empty() || path.front() != *src) {
      violations.push_back("route of '" + msg.name +
                           "' does not start at the sender (Eq. 2b)");
      continue;
    }
    // Eqs. 2d/2f: simple path, each resource visited at most once.
    std::set<ResourceId> seen;
    bool simple = true;
    for (ResourceId r : path) simple &= seen.insert(r).second;
    if (!simple) {
      violations.push_back("route of '" + msg.name + "' has a cycle (Eq. 2d)");
    }
    // Eq. 2g: adjacent hops.
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      if (!arch.Linked(path[i], path[i + 1])) {
        violations.push_back("route of '" + msg.name +
                             "' jumps between unlinked resources (Eq. 2g)");
        break;
      }
    }
    // Eq. 2c: every bound receiver's resource lies on the route.
    for (TaskId recv : msg.receivers) {
      const auto dst = impl.BoundResource(spec, recv);
      if (!dst) continue;
      if (std::find(path.begin(), path.end(), *dst) == path.end()) {
        violations.push_back("route of '" + msg.name +
                             "' misses receiver resource (Eq. 2c)");
      }
    }
  }

  // Eq. 2h: no diagnosis-only resources.
  for (ResourceId r = 0; r < arch.ResourceCount(); ++r) {
    bool has_diag = false, has_normal = false;
    for (std::size_t m : impl.binding) {
      if (mappings[m].resource != r) continue;
      if (IsDiagnosis(app.GetTask(mappings[m].task).kind)) {
        has_diag = true;
      } else {
        has_normal = true;
      }
    }
    if (has_diag && !has_normal) {
      violations.push_back("resource '" + arch.GetResource(r).name +
                           "' hosts only diagnosis tasks (Eq. 2h)");
    }
  }

  // Eq. 3a: at most one BIST test task per ECU; Eq. 3b: b^D iff b^T.
  std::map<ResourceId, std::uint32_t> tests_per_ecu;
  for (std::size_t m : impl.binding) {
    const Task& task = app.GetTask(mappings[m].task);
    if (task.kind == TaskKind::BistTest) ++tests_per_ecu[task.target_ecu];
  }
  for (const auto& [ecu, count] : tests_per_ecu) {
    if (count > 1) {
      violations.push_back("ECU '" + arch.GetResource(ecu).name + "' has " +
                           std::to_string(count) + " BIST tasks (Eq. 3a)");
    }
  }
  for (TaskId t = 0; t < app.TaskCount(); ++t) {
    const Task& task = app.GetTask(t);
    if (task.kind != TaskKind::BistTest) continue;
    // Find the partner data task via the incoming pattern message.
    for (MessageId c : app.Incoming(t)) {
      const Message& msg = app.GetMessage(c);
      const Task& sender = app.GetTask(msg.sender);
      if (sender.kind != TaskKind::BistData) continue;
      if ((bound_count[t] > 0) != (bound_count[msg.sender] > 0)) {
        violations.push_back("tasks '" + task.name + "' and '" + sender.name +
                             "' violate b^T <=> b^D coupling (Eq. 3b)");
      }
    }
  }

  // Allocation consistency.
  if (impl.allocation.size() != arch.ResourceCount()) {
    violations.push_back("allocation vector size mismatch");
  } else {
    for (std::size_t m : impl.binding) {
      if (!impl.allocation[mappings[m].resource]) {
        violations.push_back("bound resource '" +
                             arch.GetResource(mappings[m].resource).name +
                             "' not allocated");
      }
    }
    for (const auto& [c, path] : impl.routing) {
      for (ResourceId r : path) {
        if (!impl.allocation[r]) {
          violations.push_back(
              "routed resource '" + arch.GetResource(r).name +
              "' not allocated (message " +
              app.GetMessage(c).name + ")");
        }
      }
    }
  }

  return violations;
}

}  // namespace bistdse::model
