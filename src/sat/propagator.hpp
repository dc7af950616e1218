// Propagation engine of the layered SAT core: owns the assignment trail and
// runs the unified propagation loop — binary implications first (adjacency
// walk), then two-watched-literal long clauses, then PB counter propagation.
#pragma once

#include <cstdint>
#include <vector>

#include "sat/clause_db.hpp"
#include "sat/types.hpp"

namespace bistdse::sat {

/// A failed propagation step. `reason.kind == None` means no conflict; for
/// Binary conflicts `binary_other` carries the implied-but-false literal
/// (the full conflicting clause is then {binary_other, ~premise}).
struct Conflict {
  Reason reason{};
  Lit binary_other = kNoLit;
  bool IsConflict() const { return reason.kind != Reason::Kind::None; }
};

class Propagator {
 public:
  Propagator(ClauseDb& db, SolverStats& stats) : db_(db), stats_(stats) {}

  void AddVar();
  std::size_t VarCount() const { return assigns_.size(); }

  Value ValueOfVar(Var v) const { return assigns_[v]; }
  Value LitValue(Lit l) const {
    const Value v = assigns_[VarOf(l)];
    if (v == Value::Unassigned) return Value::Unassigned;
    const bool is_true = (v == Value::True) != IsNeg(l);
    return is_true ? Value::True : Value::False;
  }
  std::uint32_t LevelOf(Var v) const { return levels_[v]; }
  Reason ReasonOf(Var v) const { return reasons_[v]; }

  std::uint32_t DecisionLevel() const {
    return static_cast<std::uint32_t>(trail_lim_.size());
  }
  const std::vector<Lit>& Trail() const { return trail_; }

  void Enqueue(Lit l, Reason reason);
  void PushDecision(Lit l);
  /// Runs propagation to fixpoint; returns the conflict (kind None if none).
  Conflict Propagate();
  void CancelUntil(std::uint32_t level);

  /// The literals of the clause certifying `reason` (the implied literal
  /// first when given). For PB reasons the certificate is the implied
  /// literal or'ed with every term literal false before the implication.
  std::vector<Lit> ReasonLits(Reason reason, Lit implied) const;
  /// The conflicting-clause literals of a Propagate() conflict.
  std::vector<Lit> ConflictLits(const Conflict& conflict) const;

 private:
  ClauseDb& db_;
  SolverStats& stats_;

  std::vector<Value> assigns_;
  std::vector<std::uint32_t> levels_;
  std::vector<Reason> reasons_;
  std::vector<std::uint32_t> trail_pos_;
  std::vector<Lit> trail_;
  std::vector<std::uint32_t> trail_lim_;
  std::size_t qhead_ = 0;
};

}  // namespace bistdse::sat
