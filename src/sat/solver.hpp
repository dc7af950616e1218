// CDCL SAT solver with native pseudo-Boolean (linear) constraints.
//
// This is the feasibility core of SAT-decoding (Lukasiewycz et al., [17] of
// the paper): the MOEA genotype supplies a branching *order* and *phase* per
// variable; the solver completes it to a feasible assignment via unit
// propagation, binary-implication propagation, PB counter propagation, 1-UIP
// clause learning and non-chronological backtracking. Re-solving the same
// instance with a different decision policy is cheap: learned clauses
// persist across calls.
//
// The class is a thin facade over the layered core (ClauseDb / Propagator /
// Searcher — see sat/types.hpp for the layering map); the public surface is
// unchanged from the historical monolithic solver.
//
// PB constraints are normalized to  sum_i a_i * lit_i >= bound  with a_i > 0;
// AtMostOne/AtLeastOne/ExactlyOne helpers build on clauses + PB.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "sat/clause_db.hpp"
#include "sat/propagator.hpp"
#include "sat/searcher.hpp"
#include "sat/types.hpp"

namespace bistdse::sat {

class Solver {
 public:
  Var NewVar();
  std::size_t VarCount() const { return prop_.VarCount(); }

  /// Adds a disjunction (at least one literal true). An empty clause makes
  /// the instance trivially unsatisfiable.
  void AddClause(std::vector<Lit> lits);

  /// sum coef_i * lit_i >= bound (coefficients must be > 0; throws
  /// std::invalid_argument otherwise and std::overflow_error when the
  /// coefficient sum exceeds the int64 range).
  void AddPbGe(std::vector<std::pair<std::int64_t, Lit>> terms,
               std::int64_t bound);
  /// sum coef_i * lit_i <= bound.
  void AddPbLe(std::vector<std::pair<std::int64_t, Lit>> terms,
               std::int64_t bound);

  void AddAtMostOne(std::span<const Lit> lits);
  void AddExactlyOne(std::span<const Lit> lits);

  /// Installs the SAT-decoding branching policy: variables are decided in
  /// `order` (earlier = higher priority) with the given preferred phase.
  /// Variables missing from `order` follow in ascending index with phase
  /// false; a solve returns the lexicographically first model under that
  /// static order.
  void SetDecisionPolicy(std::span<const Var> order,
                         std::span<const std::uint8_t> phases);

  /// Solves from scratch (prior learned clauses are kept and reused).
  SolveResult Solve();

  /// Model value after Solve() == Sat.
  Value ValueOf(Var v) const { return prop_.ValueOfVar(v); }
  bool IsTrue(Var v) const { return ValueOf(v) == Value::True; }

  const SolverStats& Stats() const { return stats_; }

 private:
  /// Asserts a root fact and propagates; clears ok_ on conflict.
  void AssertRootFact(Lit l);

  SolverStats stats_{};
  ClauseDb db_{};
  Propagator prop_{db_, stats_};
  Searcher searcher_{db_, prop_, stats_};

  bool ok_ = true;  // false once a top-level contradiction is found
};

}  // namespace bistdse::sat
