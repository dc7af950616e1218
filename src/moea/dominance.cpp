#include "moea/dominance.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <numeric>
#include <stdexcept>

namespace bistdse::moea {

bool Dominates(const ObjectiveVector& a, const ObjectiveVector& b) {
  if (a.size() != b.size())
    throw std::invalid_argument("objective dimensionality mismatch");
  bool strict = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] > b[i]) return false;
    if (a[i] < b[i]) strict = true;
  }
  return strict;
}

std::vector<std::vector<std::size_t>> FastNonDominatedSort(
    std::span<const double> points, std::size_t dims) {
  if (dims == 0 || points.size() % dims != 0)
    throw std::invalid_argument(
        "objective buffer is not a whole number of points");
  const std::size_t n = points.size() / dims;
  const std::size_t words = (n + 63) / 64;
  // Row p holds one bit per point that p dominates.
  std::vector<std::uint64_t> dominated(n * words, 0);
  std::vector<std::size_t> domination_count(n, 0);

  // Each pair once. lt and gt collect the coordinates where p lies below
  // and above q: p dominates q iff lt && !gt, and q dominates p iff
  // gt && !lt, which is Dominates in both directions (a NaN coordinate sets
  // neither). Both outcomes are recorded without a branch.
  for (std::size_t p = 0; p < n; ++p) {
    const double* a = points.data() + p * dims;
    std::uint64_t* row = dominated.data() + p * words;
    for (std::size_t q = p + 1; q < n; ++q) {
      const double* b = points.data() + q * dims;
      bool lt = false;
      bool gt = false;
      for (std::size_t d = 0; d < dims; ++d) {
        lt |= a[d] < b[d];
        gt |= a[d] > b[d];
      }
      const std::uint64_t p_dominates = lt && !gt;
      const std::uint64_t q_dominates = gt && !lt;
      row[q / 64] |= p_dominates << (q % 64);
      dominated[q * words + p / 64] |= q_dominates << (p % 64);
      domination_count[q] += p_dominates;
      domination_count[p] += q_dominates;
    }
  }

  // Reading a row's bits in ascending order visits the points p dominates
  // in index order, as a scan of every q for row p would list them, so the
  // fronts and their order are those of that scan.
  std::vector<std::vector<std::size_t>> fronts(1);
  for (std::size_t p = 0; p < n; ++p) {
    if (domination_count[p] == 0) fronts[0].push_back(p);
  }
  std::size_t current = 0;
  while (!fronts[current].empty()) {
    std::vector<std::size_t> next;
    for (std::size_t p : fronts[current]) {
      const std::uint64_t* row = dominated.data() + p * words;
      for (std::size_t w = 0; w < words; ++w) {
        for (std::uint64_t bits = row[w]; bits != 0; bits &= bits - 1) {
          const std::size_t q = w * 64 + std::countr_zero(bits);
          if (--domination_count[q] == 0) next.push_back(q);
        }
      }
    }
    ++current;
    fronts.push_back(std::move(next));
  }
  fronts.pop_back();  // last front is empty
  return fronts;
}

std::vector<double> CrowdingDistance(std::span<const double> points,
                                     std::size_t dims,
                                     std::span<const std::size_t> front) {
  const std::size_t n = front.size();
  std::vector<double> distance(n, 0.0);
  if (n == 0) return distance;
  const auto at = [&](std::size_t member, std::size_t d) {
    return points[front[member] * dims + d];
  };

  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});

  for (std::size_t d = 0; d < dims; ++d) {
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return at(a, d) < at(b, d);
    });
    distance[order.front()] = std::numeric_limits<double>::infinity();
    distance[order.back()] = std::numeric_limits<double>::infinity();
    const double span = at(order.back(), d) - at(order.front(), d);
    if (span <= 0.0) continue;
    for (std::size_t i = 1; i + 1 < n; ++i) {
      distance[order[i]] += (at(order[i + 1], d) - at(order[i - 1], d)) / span;
    }
  }
  return distance;
}

}  // namespace bistdse::moea
