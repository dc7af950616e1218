// Propagation engine of the layered SAT core: one solver's search state over
// a shared sat::Formula — the assignment trail, the two-watched-literal
// lists, the PB slacks and the learned clauses — and the unified
// propagation loop: PB counters first, then binary implications (adjacency
// walk), then the watched long clauses. Nothing here writes the formula.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "sat/formula.hpp"
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
  explicit Propagator(SolverStats& stats) : stats_(stats) {}

  /// Starts over on `formula` (which must be indexed and outlive its use):
  /// every variable unassigned, every clause watched on its first two
  /// literals, PB slacks at their initial values. Learned clauses survive:
  /// they follow from the formula, which only ever grows.
  void Reset(const Formula& formula);

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

  /// Adds a learned clause of two or more literals, watched on its first
  /// two, and returns its clause index (after the formula's clauses).
  std::uint32_t AddLearned(std::span<const Lit> lits);
  /// Records a learned unit; Reset asserts it again at the root.
  void AddLearnedUnit(Lit l) { learned_units_.push_back(l); }
  std::span<const Lit> LearnedUnits() const { return learned_units_; }

  /// The literals of the clause certifying `reason` (the implied literal
  /// first when given). For PB reasons the certificate is the implied
  /// literal or'ed with every term literal false before the implication.
  std::vector<Lit> ReasonLits(Reason reason, Lit implied) const;
  /// The conflicting-clause literals of a Propagate() conflict.
  std::vector<Lit> ConflictLits(const Conflict& conflict) const;

 private:
  static constexpr std::uint32_t kNoWatch = static_cast<std::uint32_t>(-1);

  /// Literals of clause `c`: the formula's clauses, then the learned ones.
  std::span<const Lit> ClauseLits(std::uint32_t c) const;
  /// Links watch `w` (clause w / 2, watched literal w % 2) into the list of
  /// `l`.
  void Watch(std::uint32_t w, Lit l) {
    watched_[w] = l;
    next_watch_[w] = watch_head_[l];
    watch_head_[l] = w;
  }

  const Formula* formula_ = nullptr;
  SolverStats& stats_;

  std::vector<Value> assigns_;
  std::vector<std::uint32_t> levels_;
  std::vector<Reason> reasons_;
  std::vector<std::uint32_t> trail_pos_;
  std::vector<Lit> trail_;
  std::vector<std::uint32_t> trail_lim_;
  std::size_t qhead_ = 0;

  // Two watches per clause, kept in one intrusive list per literal:
  // watched_[w] is the literal watch w sits on, next_watch_[w] the next
  // watch on the same literal, watch_head_[l] the first (kNoWatch ends a
  // list). A watch moves by relinking, so a conflict leaves every list
  // whole.
  std::vector<std::uint32_t> watch_head_;
  std::vector<std::uint32_t> next_watch_;
  std::vector<Lit> watched_;

  std::vector<std::uint32_t> learned_begin_{0};
  std::vector<Lit> learned_lits_;
  std::vector<Lit> learned_units_;

  std::vector<std::int64_t> pb_slack_;  // coefs of not-false lits - bound
};

}  // namespace bistdse::sat
