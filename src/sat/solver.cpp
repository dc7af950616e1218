#include "sat/solver.hpp"

#include <stdexcept>

namespace bistdse::sat {

Solver::Solver()
    : owned_(std::make_shared<Formula>()), formula_(owned_) {}

Solver::Solver(std::shared_ptr<const Formula> formula)
    : formula_(std::move(formula)) {
  if (!formula_ || !formula_->Indexed()) {
    throw std::invalid_argument("a shared formula must be indexed");
  }
}

Formula& Solver::Owned() {
  if (!owned_) {
    throw std::logic_error("the formula is shared; it takes no constraints");
  }
  stale_ = true;
  return *owned_;
}

Var Solver::NewVar() { return Owned().NewVar(); }

void Solver::AddClause(std::vector<Lit> lits) {
  Owned().AddClause(std::move(lits));
}

void Solver::AddPbGe(std::vector<std::pair<std::int64_t, Lit>> terms,
                     std::int64_t bound) {
  Owned().AddPbGe(std::move(terms), bound);
}

void Solver::AddPbLe(std::vector<std::pair<std::int64_t, Lit>> terms,
                     std::int64_t bound) {
  Owned().AddPbLe(std::move(terms), bound);
}

std::shared_ptr<const Formula> Solver::SharedFormula() {
  if (owned_) owned_->Index();
  owned_.reset();
  return formula_;
}

void Solver::Sync() {
  if (!stale_) return;
  stale_ = false;
  if (owned_) owned_->Index();
  const Formula& formula = *formula_;
  prop_.Reset(formula);
  searcher_.Resize(formula.VarCount());
  if (formula.TriviallyUnsat()) ok_ = false;
  if (!ok_) return;
  // Root units: the formula's, then the ones this solver learned.
  for (const auto units : {formula.Units(), prop_.LearnedUnits()}) {
    for (const Lit l : units) {
      const Value value = prop_.LitValue(l);
      if (value == Value::False) {
        ok_ = false;
        return;
      }
      if (value == Value::Unassigned) prop_.Enqueue(l, {Reason::Kind::None, 0});
    }
  }
  if (prop_.Propagate().IsConflict()) ok_ = false;
}

void Solver::SetDecisionPolicy(std::span<const Var> order,
                               std::span<const std::uint8_t> phases) {
  Sync();
  searcher_.SetDecisionPolicy(order, phases);
}

SolveResult Solver::Solve() {
  ++stats_.solves;
  Sync();
  if (!ok_) return SolveResult::Unsat;
  prop_.CancelUntil(0);
  const SolveResult result = searcher_.Search();
  if (result == SolveResult::Unsat) ok_ = false;
  return result;
}

}  // namespace bistdse::sat
