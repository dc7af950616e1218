#include "model/architecture.hpp"

#include <algorithm>
#include <stdexcept>

namespace bistdse::model {

ResourceId ArchitectureGraph::AddResource(Resource resource) {
  const auto id = static_cast<ResourceId>(resources_.size());
  resources_.push_back(std::move(resource));
  adjacency_.emplace_back();
  return id;
}

void ArchitectureGraph::AddLink(ResourceId a, ResourceId b) {
  if (a >= resources_.size() || b >= resources_.size())
    throw std::invalid_argument("link endpoint out of range");
  if (a == b) throw std::invalid_argument("self-link");
  if (Linked(a, b)) return;
  adjacency_[a].push_back(b);
  adjacency_[b].push_back(a);
  std::sort(adjacency_[a].begin(), adjacency_[a].end());
  std::sort(adjacency_[b].begin(), adjacency_[b].end());
}

bool ArchitectureGraph::Linked(ResourceId a, ResourceId b) const {
  const auto& adj = adjacency_[a];
  return std::find(adj.begin(), adj.end(), b) != adj.end();
}

namespace {

/// Appends the hops after `from` on the `pred` tree path from -> to.
bool AppendTreePath(std::span<const ResourceId> pred, ResourceId from,
                    ResourceId to, std::vector<ResourceId>& path) {
  if (pred[to] == kInvalidId) return false;
  const std::size_t start = path.size();
  for (ResourceId r = to; r != from; r = pred[r]) path.push_back(r);
  std::reverse(path.begin() + static_cast<std::ptrdiff_t>(start), path.end());
  return true;
}

}  // namespace

void ArchitectureGraph::BfsTree(ResourceId source,
                                std::span<ResourceId> pred) const {
  std::fill(pred.begin(), pred.end(), kInvalidId);
  std::vector<ResourceId> queue{source};
  pred[source] = source;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const ResourceId cur = queue[head];
    for (ResourceId next : adjacency_[cur]) {  // sorted: lowest-id tie-break
      if (pred[next] != kInvalidId) continue;
      pred[next] = cur;
      queue.push_back(next);
    }
  }
}

std::optional<std::vector<ResourceId>> ArchitectureGraph::ShortestPath(
    ResourceId a, ResourceId b) const {
  if (a >= resources_.size() || b >= resources_.size()) return std::nullopt;
  std::vector<ResourceId> pred(resources_.size());
  BfsTree(a, pred);
  std::vector<ResourceId> path{a};
  if (!AppendTreePath(pred, a, b, path)) return std::nullopt;
  return path;
}

std::vector<ResourceId> ArchitectureGraph::ResourcesOfKind(
    ResourceKind kind) const {
  std::vector<ResourceId> out;
  for (ResourceId id = 0; id < resources_.size(); ++id) {
    if (resources_[id].kind == kind) out.push_back(id);
  }
  return out;
}

ResourceId ArchitectureGraph::Gateway() const {
  const auto gws = ResourcesOfKind(ResourceKind::Gateway);
  if (gws.size() != 1)
    throw std::logic_error("architecture must have exactly one gateway");
  return gws[0];
}

RouteTable::RouteTable(const ArchitectureGraph& arch)
    : resources_(arch.ResourceCount()),
      pred_(resources_ * resources_) {
  for (ResourceId from = 0; from < resources_; ++from) {
    arch.BfsTree(from, std::span(pred_).subspan(from * resources_, resources_));
  }
}

bool RouteTable::AppendPath(ResourceId from, ResourceId to,
                            std::vector<ResourceId>& path) const {
  return AppendTreePath(
      std::span(pred_).subspan(from * resources_, resources_), from, to, path);
}

}  // namespace bistdse::model
