#include "moea/indicators.hpp"

#include <algorithm>
#include <stdexcept>

namespace bistdse::moea {

namespace {

double Hypervolume2D(std::vector<ObjectiveVector> pts,
                     const ObjectiveVector& ref) {
  std::sort(pts.begin(), pts.end());
  double volume = 0.0;
  double prev_y = ref[1];
  for (const auto& p : pts) {
    const double x = std::min(p[0], ref[0]);
    const double y = std::min(p[1], ref[1]);
    if (y < prev_y) {
      volume += (ref[0] - x) * (prev_y - y);
      prev_y = y;
    }
  }
  return volume;
}

}  // namespace

std::vector<ObjectiveVector> NonDominatedSubset(
    std::span<const ObjectiveVector> points) {
  std::vector<ObjectiveVector> kept;
  for (const auto& p : points) {
    bool dominated = false;
    for (const auto& q : points) {
      if (&p != &q && (Dominates(q, p))) {
        dominated = true;
        break;
      }
    }
    if (!dominated &&
        std::find(kept.begin(), kept.end(), p) == kept.end()) {
      kept.push_back(p);
    }
  }
  return kept;
}

namespace {

/// HSO recursion: slice along the last objective; between consecutive cuts
/// the volume is the (d-1)-dimensional hypervolume of the active points.
double HypervolumeRec(std::vector<ObjectiveVector> pts,
                      const ObjectiveVector& reference) {
  const std::size_t dims = reference.size();
  if (pts.empty()) return 0.0;
  if (dims == 2) return Hypervolume2D(std::move(pts), reference);

  const std::size_t last = dims - 1;
  std::vector<double> cuts;
  for (const auto& p : pts) {
    if (p[last] < reference[last]) cuts.push_back(p[last]);
  }
  if (cuts.empty()) return 0.0;
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
  cuts.push_back(reference[last]);

  ObjectiveVector sub_ref(reference.begin(), reference.end() - 1);
  double volume = 0.0;
  for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
    const double depth = cuts[i + 1] - cuts[i];
    std::vector<ObjectiveVector> slice;
    for (const auto& p : pts) {
      if (p[last] <= cuts[i]) {
        slice.emplace_back(p.begin(), p.end() - 1);
      }
    }
    if (!slice.empty()) {
      volume += depth * HypervolumeRec(std::move(slice), sub_ref);
    }
  }
  return volume;
}

}  // namespace

double Hypervolume(std::span<const ObjectiveVector> front,
                   const ObjectiveVector& reference) {
  if (front.empty()) return 0.0;
  const std::size_t dims = reference.size();
  if (dims < 2) throw std::invalid_argument("need >= 2 objectives");
  for (const auto& p : front) {
    if (p.size() != dims)
      throw std::invalid_argument("dimensionality mismatch");
  }
  return HypervolumeRec(NonDominatedSubset(front), reference);
}

}  // namespace bistdse::moea
