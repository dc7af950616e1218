// Pareto dominance, fast non-dominated sorting and crowding distance
// (Deb et al., NSGA-II, IEEE TEC 2002). All objectives are minimized.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace bistdse::moea {

using ObjectiveVector = std::vector<double>;

/// a dominates b: a <= b in every objective and a < b in at least one.
bool Dominates(const ObjectiveVector& a, const ObjectiveVector& b);

/// Partitions the points of `points` (row-major, `dims` objectives per
/// point, point i in [i * dims, (i + 1) * dims)) into non-dominated fronts
/// (front 0 first, each front in the order Deb et al.'s algorithm finds it).
/// Dominance is Dominates's. Throws std::invalid_argument when dims is 0 or
/// points.size() is not a multiple of dims.
std::vector<std::vector<std::size_t>> FastNonDominatedSort(
    std::span<const double> points, std::size_t dims);

/// Crowding distance of each member of `front` (point indices into the
/// row-major `points`, as in FastNonDominatedSort). Boundary points get
/// +infinity.
std::vector<double> CrowdingDistance(std::span<const double> points,
                                     std::size_t dims,
                                     std::span<const std::size_t> front);

}  // namespace bistdse::moea
