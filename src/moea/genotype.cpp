#include "moea/genotype.hpp"

#include <algorithm>
#include <bit>
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
  // Gene i comes from `a` when rng.Chance(0.5) holds for draw x_i, that is
  // when (x_i >> 11) * 2^-53 < 0.5: exactly when the top bit of x_i is
  // clear. The top bit, spread into a mask, selects the gene without a
  // branch, which a fair coin would mispredict half the time. The RNG runs
  // on a local copy and the data pointers are read once: a store through
  // the uint8_t phases may alias anything.
  Genotype child = a;
  const std::size_t n = a.Size();
  double* priorities = child.priorities.data();
  std::uint8_t* phases = child.phases.data();
  const double* b_priorities = b.priorities.data();
  const std::uint8_t* b_phases = b.phases.data();
  util::SplitMix64 local = rng;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t from_b = 0 - (local() >> 63);
    priorities[i] = std::bit_cast<double>(
        (std::bit_cast<std::uint64_t>(priorities[i]) & ~from_b) |
        (std::bit_cast<std::uint64_t>(b_priorities[i]) & from_b));
    phases[i] = static_cast<std::uint8_t>((phases[i] & ~from_b) |
                                          (b_phases[i] & from_b));
  }
  rng = local;
  return child;
}

void Mutate(Genotype& genotype, double rate, util::SplitMix64& rng) {
  // rng.Chance(rate) is (x >> 11) * 2^-53 < rate. Scaling by 2^53 is exact,
  // so for rate > 0 it is the integer test (x >> 11) < ceil(rate * 2^53);
  // a rate of 1 or more takes every gene, and one <= 0 (or NaN) none, each
  // still with one draw per gene.
  const std::uint64_t threshold =
      rate > 0.0 ? static_cast<std::uint64_t>(
                       std::ceil(std::min(rate, 1.0) * 0x1.0p53))
                 : 0;
  const std::size_t n = genotype.Size();
  double* priorities = genotype.priorities.data();
  std::uint8_t* phases = genotype.phases.data();
  util::SplitMix64 local = rng;
  for (std::size_t i = 0; i < n; ++i) {
    if ((local() >> 11) >= threshold) continue;
    priorities[i] = local.UnitReal();
    // Chance(0.5), as in UniformCrossover: the flip when the top bit is
    // clear.
    phases[i] ^= static_cast<std::uint8_t>((local() >> 63) ^ 1);
  }
  rng = local;
}

}  // namespace bistdse::moea
