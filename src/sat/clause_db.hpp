// Constraint store of the layered SAT core: long-clause arena with two
// watched literals, a dedicated binary-implication graph (2-literal clauses
// propagate via adjacency lists, not watches), and the PB constraint store
// with per-literal occurrence lists. The store is append-only: a constraint
// is never rewritten or removed once added, and learned clauses only join
// it.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "sat/types.hpp"

namespace bistdse::sat {

struct PbConstraint {
  std::vector<std::pair<std::int64_t, Lit>> terms;  // coef > 0
  std::int64_t bound = 0;
  std::int64_t slack = 0;  // sum of coefs of not-false lits minus bound
};

class ClauseDb {
 public:
  /// Grows every per-literal structure for one new variable.
  void AddVar();

  // --- long clauses -------------------------------------------------------
  /// Adds a clause of size >= 3 and watches its first two literals.
  std::uint32_t AddLong(std::vector<Lit> lits);
  std::vector<Lit>& ClauseAt(std::uint32_t index) { return clauses_[index]; }
  const std::vector<Lit>& ClauseAt(std::uint32_t index) const {
    return clauses_[index];
  }
  std::vector<std::uint32_t>& Watches(Lit l) { return watches_[l]; }

  // --- binary clauses -----------------------------------------------------
  /// Registers (a v b): a false implies b and vice versa.
  void AddBinary(Lit a, Lit b);
  /// Literals implied by `p` being true (adjacency of the implication
  /// graph).
  const std::vector<Lit>& Implications(Lit p) const { return implications_[p]; }

  // --- pseudo-Boolean constraints -----------------------------------------
  std::uint32_t AddPb(PbConstraint pb);
  PbConstraint& PbAt(std::uint32_t index) { return pbs_[index]; }
  const PbConstraint& PbAt(std::uint32_t index) const { return pbs_[index]; }
  const std::vector<std::uint32_t>& PbOccurrences(Lit l) const {
    return pb_occurrences_[l];
  }

 private:
  std::vector<std::vector<Lit>> clauses_;
  std::vector<std::vector<std::uint32_t>> watches_;  // per lit
  std::vector<std::vector<Lit>> implications_;       // per lit
  std::vector<PbConstraint> pbs_;
  std::vector<std::vector<std::uint32_t>> pb_occurrences_;  // per lit
};

}  // namespace bistdse::sat
