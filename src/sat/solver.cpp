#include "sat/solver.hpp"

#include <algorithm>
#include <map>
#include <stdexcept>
#include <string>

namespace bistdse::sat {

Var Solver::NewVar() {
  const Var v = static_cast<Var>(prop_.VarCount());
  db_.AddVar();
  prop_.AddVar();
  searcher_.AddVar();
  return v;
}

void Solver::AssertRootFact(Lit l) {
  prop_.Enqueue(l, {Reason::Kind::None, 0});
  if (prop_.Propagate().IsConflict()) ok_ = false;
}

void Solver::AddClause(std::vector<Lit> lits) {
  if (!ok_) return;
  // Constraints are only sound to ingest at the root: assignments left over
  // from a previous Solve() would otherwise be mistaken for root facts.
  prop_.CancelUntil(0);
  // Deduplicate and detect tautologies / satisfied-at-root clauses.
  std::sort(lits.begin(), lits.end());
  lits.erase(std::unique(lits.begin(), lits.end()), lits.end());
  std::vector<Lit> kept;
  for (std::size_t i = 0; i < lits.size(); ++i) {
    if (i + 1 < lits.size() && VarOf(lits[i]) == VarOf(lits[i + 1]))
      return;  // l and ~l: tautology
    const Value val = prop_.LitValue(lits[i]);
    if (val == Value::True && prop_.LevelOf(VarOf(lits[i])) == 0) return;
    if (val == Value::False && prop_.LevelOf(VarOf(lits[i])) == 0) continue;
    kept.push_back(lits[i]);
  }
  if (kept.empty()) {
    ok_ = false;
    return;
  }
  if (kept.size() == 1) {
    if (prop_.LitValue(kept[0]) == Value::False) {
      ok_ = false;
      return;
    }
    if (prop_.LitValue(kept[0]) == Value::Unassigned) {
      AssertRootFact(kept[0]);
    }
    return;
  }
  if (kept.size() == 2) {
    db_.AddBinary(kept[0], kept[1]);
    return;
  }
  db_.AddLong(std::move(kept));
}

void Solver::AddPbGe(std::vector<std::pair<std::int64_t, Lit>> terms,
                     std::int64_t bound) {
  if (!ok_) return;
  prop_.CancelUntil(0);  // see AddClause: ingest constraints at root only
  // Merge duplicate literals and opposite-polarity pairs.
  std::map<Lit, std::int64_t> by_lit;
  std::int64_t coef_sum = 0;
  for (const auto& [coef, lit] : terms) {
    if (coef <= 0) {
      throw std::invalid_argument("PB coefficients must be > 0, got " +
                                  std::to_string(coef));
    }
    if (__builtin_add_overflow(coef_sum, coef, &coef_sum)) {
      throw std::overflow_error("PB coefficient sum overflows int64");
    }
    by_lit[lit] += coef;
  }
  if (by_lit.empty()) {
    // No terms: the constraint reads 0 >= bound.
    if (bound > 0) ok_ = false;
    return;
  }
  PbConstraint pb;
  pb.bound = bound;
  for (auto it = by_lit.begin(); it != by_lit.end(); ++it) {
    const Lit l = it->first;
    if (!IsNeg(l)) {
      auto neg = by_lit.find(Negate(l));
      if (neg != by_lit.end()) {
        const std::int64_t both = std::min(it->second, neg->second);
        it->second -= both;
        neg->second -= both;
        pb.bound -= both;  // one of l/~l is always true
      }
    }
  }
  for (const auto& [lit, coef] : by_lit) {
    if (coef <= 0) continue;
    // Literals true at root always contribute; fold them into the bound.
    if (prop_.LitValue(lit) == Value::True && prop_.LevelOf(VarOf(lit)) == 0) {
      pb.bound -= coef;
      continue;
    }
    if (prop_.LitValue(lit) == Value::False && prop_.LevelOf(VarOf(lit)) == 0)
      continue;
    pb.terms.emplace_back(std::min(coef, std::max<std::int64_t>(pb.bound, 1)),
                          lit);
  }
  if (pb.bound <= 0) return;  // trivially satisfied
  // Re-clamp after bound folding.
  std::int64_t total = 0;
  for (auto& [coef, lit] : pb.terms) {
    coef = std::min(coef, pb.bound);
    total += coef;
  }
  pb.slack = total - pb.bound;
  if (pb.slack < 0) {
    ok_ = false;  // bound unreachable even with every literal true
    return;
  }
  const std::int64_t slack = pb.slack;
  const std::uint32_t index = db_.AddPb(std::move(pb));
  // Root-level propagation.
  for (const auto& [coef, lit] : db_.PbAt(index).terms) {
    if (coef > slack && prop_.LitValue(lit) == Value::Unassigned) {
      prop_.Enqueue(lit, {Reason::Kind::None, 0});  // root-level fact
    }
  }
  if (prop_.Propagate().IsConflict()) ok_ = false;
}

void Solver::AddPbLe(std::vector<std::pair<std::int64_t, Lit>> terms,
                     std::int64_t bound) {
  std::int64_t total = 0;
  for (auto& [coef, lit] : terms) {
    if (coef <= 0) {
      throw std::invalid_argument("PB coefficients must be > 0, got " +
                                  std::to_string(coef));
    }
    if (__builtin_add_overflow(total, coef, &total)) {
      throw std::overflow_error("PB coefficient sum overflows int64");
    }
    lit = Negate(lit);
  }
  std::int64_t ge_bound = 0;
  if (__builtin_sub_overflow(total, bound, &ge_bound)) {
    throw std::overflow_error("PB bound overflows int64 after normalization");
  }
  AddPbGe(std::move(terms), ge_bound);
}

void Solver::AddAtMostOne(std::span<const Lit> lits) {
  if (lits.size() <= 1) return;
  if (lits.size() <= 5) {
    for (std::size_t i = 0; i < lits.size(); ++i) {
      for (std::size_t j = i + 1; j < lits.size(); ++j) {
        AddClause({Negate(lits[i]), Negate(lits[j])});
      }
    }
    return;
  }
  std::vector<std::pair<std::int64_t, Lit>> terms;
  terms.reserve(lits.size());
  for (Lit l : lits) terms.emplace_back(1, l);
  AddPbLe(std::move(terms), 1);
}

void Solver::AddExactlyOne(std::span<const Lit> lits) {
  AddClause({lits.begin(), lits.end()});
  AddAtMostOne(lits);
}

void Solver::SetDecisionPolicy(std::span<const Var> order,
                               std::span<const std::uint8_t> phases) {
  searcher_.SetDecisionPolicy(order, phases);
}

SolveResult Solver::Solve() {
  ++stats_.solves;
  if (!ok_) return SolveResult::Unsat;
  prop_.CancelUntil(0);
  if (prop_.Propagate().IsConflict()) {
    ok_ = false;
    return SolveResult::Unsat;
  }
  const SolveResult result = searcher_.Search();
  if (result == SolveResult::Unsat) ok_ = false;
  return result;
}

}  // namespace bistdse::sat
