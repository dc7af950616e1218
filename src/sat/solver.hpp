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
// The class is a thin facade over the layered core (Formula / Propagator /
// Searcher — see sat/types.hpp for the layering map). A solver either builds
// its own formula through the Add* methods below, or searches a formula
// another party built and shares: several solvers, one per thread, can
// decode over one std::shared_ptr<const Formula>, each with its own
// assignment, watches, PB slacks and learned clauses.
//
// PB constraints are normalized to  sum_i a_i * lit_i >= bound  with a_i > 0;
// AtMostOne/AtLeastOne/ExactlyOne helpers build on clauses + PB.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "sat/formula.hpp"
#include "sat/propagator.hpp"
#include "sat/searcher.hpp"
#include "sat/types.hpp"

namespace bistdse::sat {

class Solver {
 public:
  /// A solver over its own formula, empty until the Add* calls fill it.
  Solver();
  /// A solver over `formula`, which must be indexed (Formula::Index). It
  /// adds no constraints: the Add* calls throw std::logic_error.
  explicit Solver(std::shared_ptr<const Formula> formula);

  Solver(const Solver&) = delete;
  Solver& operator=(const Solver&) = delete;

  Var NewVar();
  std::size_t VarCount() const { return formula_->VarCount(); }

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

  /// This solver's formula, indexed, for other solvers to search. From then
  /// on the formula is read-only: this solver's Add* calls throw
  /// std::logic_error.
  std::shared_ptr<const Formula> SharedFormula();

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
  Formula& Owned();
  /// Brings the search state up to the formula after constraints were
  /// added (and once at the start): asserts the root units and propagates
  /// them; clears ok_ on a root conflict.
  void Sync();

  std::shared_ptr<Formula> owned_;  // null once shared or when not built here
  std::shared_ptr<const Formula> formula_;
  bool stale_ = true;

  SolverStats stats_{};
  Propagator prop_{stats_};
  Searcher searcher_{prop_, stats_};

  bool ok_ = true;  // false once a top-level contradiction is found
};

}  // namespace bistdse::sat
