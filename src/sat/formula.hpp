// Constraint store of the layered SAT core, shareable between solvers. It
// holds the variables, the root units, the binary-implication graph, the
// long clauses and the PB constraints in flat arrays, and nothing a search
// writes: assignments, watches, PB slacks and learned clauses belong to each
// solver (sat::Propagator). Once indexed and held as
// std::shared_ptr<const Formula>, any number of solvers search one formula
// at the same time, each on its own thread.
//
// Constraints are normalized on entry (sorted, duplicate literals merged,
// tautologies dropped, PB coefficients clamped to the bound) but not
// simplified against root facts: a unit is kept as a root unit and every
// solver asserts it when it starts. The store is append-only.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "sat/types.hpp"

namespace bistdse::sat {

/// One PB term: `coef` > 0, clamped to the constraint's bound.
struct PbTerm {
  std::int64_t coef = 0;
  Lit lit = kNoLit;
};

/// One occurrence of a literal in a PB constraint, with its coefficient.
struct PbOccurrence {
  std::uint32_t pb = 0;
  std::int64_t coef = 0;
};

class Formula {
 public:
  Var NewVar() {
    indexed_ = false;
    return static_cast<Var>(vars_++);
  }
  std::size_t VarCount() const { return vars_; }

  /// Adds a disjunction (at least one literal true). An empty clause makes
  /// the formula unsatisfiable. Throws std::invalid_argument on a literal
  /// of an unknown variable.
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

  /// Builds the per-literal indexes (implication graph, PB occurrences) the
  /// accessors marked "indexed" read. A later Add* call invalidates them.
  void Index();
  bool Indexed() const { return indexed_; }

  /// True once some constraint can never hold (an empty clause, a PB bound
  /// above its coefficient sum).
  bool TriviallyUnsat() const { return unsat_; }
  /// Literals every model makes true: unit clauses and PB terms whose
  /// coefficient exceeds the constraint's slack.
  std::span<const Lit> Units() const { return units_; }

  /// Literals implied by `p` being true (indexed).
  std::span<const Lit> Implications(Lit p) const {
    return {implied_.data() + implied_begin_[p],
            implied_.data() + implied_begin_[p + 1]};
  }

  /// Long clauses (three or more literals), in insertion order.
  std::uint32_t ClauseCount() const {
    return static_cast<std::uint32_t>(clause_begin_.size() - 1);
  }
  std::span<const Lit> Clause(std::uint32_t c) const {
    return {clause_lits_.data() + clause_begin_[c],
            clause_lits_.data() + clause_begin_[c + 1]};
  }

  std::uint32_t PbCount() const {
    return static_cast<std::uint32_t>(pb_slack_.size());
  }
  std::span<const PbTerm> PbTerms(std::uint32_t pb) const {
    return {pb_terms_.data() + pb_begin_[pb],
            pb_terms_.data() + pb_begin_[pb + 1]};
  }
  /// Coefficient sum minus bound: the slack with no literal assigned.
  std::int64_t PbInitialSlack(std::uint32_t pb) const { return pb_slack_[pb]; }
  std::int64_t PbMaxCoef(std::uint32_t pb) const { return pb_max_coef_[pb]; }
  /// The PB constraints `l` occurs in (indexed).
  std::span<const PbOccurrence> PbOccurrences(Lit l) const {
    return {pb_occ_.data() + pb_occ_begin_[l],
            pb_occ_.data() + pb_occ_begin_[l + 1]};
  }

 private:
  void CheckLit(Lit l) const;

  std::size_t vars_ = 0;
  bool unsat_ = false;
  bool indexed_ = false;
  std::vector<Lit> units_;

  // Binary clauses as added, and the implication graph built from them.
  std::vector<std::pair<Lit, Lit>> binaries_;
  std::vector<std::uint32_t> implied_begin_;  // per literal, + 1
  std::vector<Lit> implied_;

  std::vector<std::uint32_t> clause_begin_{0};
  std::vector<Lit> clause_lits_;

  std::vector<std::uint32_t> pb_begin_{0};
  std::vector<PbTerm> pb_terms_;
  std::vector<std::int64_t> pb_slack_;
  std::vector<std::int64_t> pb_max_coef_;
  std::vector<std::uint32_t> pb_occ_begin_;  // per literal, + 1
  std::vector<PbOccurrence> pb_occ_;
};

}  // namespace bistdse::sat
