// Multi-objective quality indicator: exact hypervolume. Objectives are
// minimized; the reference point must be dominated by every front member.
#pragma once

#include <span>
#include <vector>

#include "moea/dominance.hpp"

namespace bistdse::moea {

/// Exact hypervolume for minimization fronts of any dimension (HSO-style
/// recursive slicing; practical for the front sizes and <= 5 objectives
/// used here). Points outside the reference box contribute their clipped
/// part.
double Hypervolume(std::span<const ObjectiveVector> front,
                   const ObjectiveVector& reference);

/// Strips dominated and duplicate points.
std::vector<ObjectiveVector> NonDominatedSubset(
    std::span<const ObjectiveVector> points);

}  // namespace bistdse::moea
