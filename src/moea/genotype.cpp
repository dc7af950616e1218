#include "moea/genotype.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace bistdse::moea {

const std::vector<std::uint32_t>& DecisionOrder::Compute(
    const Genotype& genotype) {
  const std::vector<double>& priority = genotype.priorities;
  const std::size_t n = priority.size();
  order_.resize(n);
  if (n == 0) return order_;
  double lo = priority[0];
  double hi = priority[0];
  for (const double p : priority) {
    if (!std::isfinite(p))
      throw std::invalid_argument("genotype priority is not finite");
    lo = std::min(lo, p);
    hi = std::max(hi, p);
  }

  // Bucket b of n collects the priorities whose distance below `hi`, scaled
  // from [0, hi - lo] onto [0, n], rounds down to b. The map is monotone, so
  // a higher priority never lands in a later bucket, and equal priorities
  // (the two zeros included) share one. Halving before subtracting keeps
  // every distance finite; capping the scale keeps it finite when the range
  // is subnormal.
  const double half_hi = 0.5 * hi;
  const double range = half_hi - 0.5 * lo;
  const double scale =
      range > 0.0 ? std::min(static_cast<double>(n) / range,
                             std::numeric_limits<double>::max())
                  : 0.0;
  const auto bucket = [&](double p) {
    return std::min(static_cast<std::size_t>((half_hi - 0.5 * p) * scale),
                    n - 1);
  };

  // A counting sort into the buckets keeps each bucket in gene order.
  bucket_end_.assign(n + 1, 0);
  for (const double p : priority) ++bucket_end_[bucket(p) + 1];
  for (std::size_t b = 0; b < n; ++b) bucket_end_[b + 1] += bucket_end_[b];
  for (std::uint32_t gene = 0; gene < n; ++gene) {
    order_[bucket_end_[bucket(priority[gene])]++] = gene;
  }

  // One insertion pass finishes the order. It moves a gene only past
  // strictly lower priorities, so ties keep gene order, and only within its
  // bucket: the pass costs the disorder inside buckets, which is linear on
  // average for priorities spread over their range, as the GA draws them.
  for (std::size_t i = 1; i < n; ++i) {
    const std::uint32_t gene = order_[i];
    std::size_t j = i;
    for (; j > 0 && priority[order_[j - 1]] < priority[gene]; --j) {
      order_[j] = order_[j - 1];
    }
    order_[j] = gene;
  }
  return order_;
}

Genotype RandomGenotype(std::size_t n, util::SplitMix64& rng) {
  return RandomGenotypeBiased(n, 0.5, rng);
}

Genotype RandomGenotypeBiased(std::size_t n, double bias,
                              util::SplitMix64& rng) {
  Genotype g;
  g.priorities.resize(n);
  g.phases.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    g.priorities[i] = rng.UnitReal();
    g.phases[i] = rng.Chance(bias) ? 1 : 0;
  }
  return g;
}

Genotype UniformCrossover(const Genotype& a, const Genotype& b,
                          util::SplitMix64& rng) {
  if (a.Size() != b.Size())
    throw std::invalid_argument("genotype size mismatch");
  Genotype child;
  child.priorities.resize(a.Size());
  child.phases.resize(a.Size());
  for (std::size_t i = 0; i < a.Size(); ++i) {
    const bool from_a = rng.Chance(0.5);
    child.priorities[i] = from_a ? a.priorities[i] : b.priorities[i];
    child.phases[i] = from_a ? a.phases[i] : b.phases[i];
  }
  return child;
}

void Mutate(Genotype& genotype, double rate, util::SplitMix64& rng) {
  for (std::size_t i = 0; i < genotype.Size(); ++i) {
    if (!rng.Chance(rate)) continue;
    genotype.priorities[i] = rng.UnitReal();
    if (rng.Chance(0.5)) genotype.phases[i] ^= 1;
  }
}

}  // namespace bistdse::moea
