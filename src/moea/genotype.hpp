// SAT-decoding genotype: a branching priority and a preferred phase per
// decision variable (Lukasiewycz et al. [17]). The decoder turns the
// genotype into a total branching order for the PB/SAT solver; the solver
// output is always a *feasible* implementation, so the evolutionary search
// never wastes evaluations on infeasible points.
#pragma once

#include <cstdint>
#include <vector>

#include "util/rng.hpp"

namespace bistdse::moea {

struct Genotype {
  std::vector<double> priorities;     ///< Higher decides earlier.
  std::vector<std::uint8_t> phases;   ///< Preferred value per variable.

  std::size_t Size() const { return priorities.size(); }
};

/// The decision order a genotype implies: gene indices by descending
/// priority, ties in ascending gene index (the order a stable sort by
/// priority gives). A counting sort into value buckets over [min, max]
/// priority followed by one insertion pass computes it in linear expected
/// time for priorities drawn uniformly. The buffers persist across calls,
/// so a decoder that owns one allocates nothing per decode.
class DecisionOrder {
 public:
  /// Orders the genes of `genotype`; the result stays valid until the next
  /// call. Throws std::invalid_argument on a non-finite priority, which has
  /// no place in the order.
  const std::vector<std::uint32_t>& Compute(const Genotype& genotype);

 private:
  std::vector<std::uint32_t> order_;
  std::vector<std::uint32_t> bucket_end_;
};

/// Uniformly random genotype of `n` genes (phase probability 1/2).
Genotype RandomGenotype(std::size_t n, util::SplitMix64& rng);

/// Random genotype whose phases are 1 with probability `bias`. Drawing the
/// bias itself uniformly per individual spreads the initial population over
/// the whole selection-density spectrum (none ... all optional tasks
/// selected) — essential when most genes gate *optional* design elements.
Genotype RandomGenotypeBiased(std::size_t n, double bias,
                              util::SplitMix64& rng);

/// Uniform crossover: each gene (priority, phase pair) from either parent.
Genotype UniformCrossover(const Genotype& a, const Genotype& b,
                          util::SplitMix64& rng);

/// Per-gene mutation: with `rate`, redraw the priority and flip the phase
/// with probability 1/2.
void Mutate(Genotype& genotype, double rate, util::SplitMix64& rng);

}  // namespace bistdse::moea
