#include "sat/searcher.hpp"

#include <algorithm>
#include <stdexcept>

namespace bistdse::sat {

void Searcher::Resize(std::size_t vars) {
  phase_.resize(vars, 0);
  in_policy_.resize(vars, 0);
  seen_.resize(vars, 0);
}

void Searcher::SetDecisionPolicy(std::span<const Var> order,
                                 std::span<const std::uint8_t> phases) {
  if (order.size() != phases.size())
    throw std::invalid_argument("order/phases size mismatch");
  order_.assign(order.begin(), order.end());
  std::fill(in_policy_.begin(), in_policy_.end(), 0);
  for (std::size_t i = 0; i < order.size(); ++i) {
    if (order[i] >= in_policy_.size())
      throw std::invalid_argument("decision policy names an unknown variable");
    phase_[order[i]] = phases[i] ? 1 : 0;
    in_policy_[order[i]] = 1;
  }
  decision_head_ = 0;
  tail_head_ = 0;
}

bool Searcher::PickBranch(Lit& decision) {
  // Pinned policy prefix: the first unassigned variable, pinned phase.
  while (decision_head_ < order_.size()) {
    const Var v = order_[decision_head_];
    if (prop_.ValueOfVar(v) == Value::Unassigned) {
      decision = phase_[v] ? PosLit(v) : NegLit(v);
      return true;
    }
    ++decision_head_;
  }
  // Tail: every other variable in ascending index, preferred phase false.
  const auto n = static_cast<Var>(prop_.VarCount());
  while (tail_head_ < n) {
    const Var v = tail_head_;
    if (!in_policy_[v] && prop_.ValueOfVar(v) == Value::Unassigned) {
      decision = NegLit(v);
      return true;
    }
    ++tail_head_;
  }
  return false;
}

void Searcher::Analyze(const Conflict& conflict, std::vector<Lit>& learnt,
                       std::uint32_t& backjump_level) {
  learnt.assign(1, kNoLit);
  ++seen_stamp_;
  const std::uint32_t current_level = prop_.DecisionLevel();
  std::uint32_t counter = 0;
  Lit p = kNoLit;
  const auto& trail = prop_.Trail();
  std::size_t idx = trail.size();
  std::vector<Lit> reason_lits = prop_.ConflictLits(conflict);

  for (;;) {
    for (const Lit q : reason_lits) {
      if (q == p) continue;
      const Var v = VarOf(q);
      if (Seen(v) || prop_.LevelOf(v) == 0) continue;
      MarkSeen(v);
      if (prop_.LevelOf(v) >= current_level) {
        ++counter;
      } else {
        learnt.push_back(q);
      }
    }
    while (idx > 0 && !Seen(VarOf(trail[idx - 1]))) --idx;
    p = trail[--idx];
    const Var pv = VarOf(p);
    UnmarkSeen(pv);
    --counter;
    if (counter == 0) break;
    reason_lits = prop_.ReasonLits(prop_.ReasonOf(pv), p);
  }
  learnt[0] = Negate(p);

  // Conflict-clause minimization (MiniSat-style): drop literals whose reason
  // is fully covered by the remaining learnt literals.
  for (const Lit q : learnt) MarkSeen(VarOf(q));
  std::size_t keep = 1;
  for (std::size_t i = 1; i < learnt.size(); ++i) {
    if (!LitRedundant(learnt[i])) learnt[keep++] = learnt[i];
  }
  learnt.resize(keep);

  backjump_level = 0;
  std::size_t max_pos = 1;
  for (std::size_t i = 1; i < learnt.size(); ++i) {
    if (prop_.LevelOf(VarOf(learnt[i])) > backjump_level) {
      backjump_level = prop_.LevelOf(VarOf(learnt[i]));
      max_pos = i;
    }
  }
  if (learnt.size() > 1) std::swap(learnt[1], learnt[max_pos]);
}

bool Searcher::LitRedundant(Lit lit) {
  // `lit` is redundant if it was implied (non-decision) and every literal of
  // its reason is already in the learnt clause (seen) or recursively
  // redundant. Bounded depth keeps worst-case cost negligible.
  const auto implied_kind = [](Reason::Kind k) {
    return k == Reason::Kind::Clause || k == Reason::Kind::Binary ||
           k == Reason::Kind::Pb;
  };
  if (!implied_kind(prop_.ReasonOf(VarOf(lit)).kind)) return false;
  std::vector<Lit> pending{lit};
  std::vector<Var> marked;  // temporarily marked as known-redundant
  std::size_t steps = 0;
  while (!pending.empty()) {
    if (++steps > 64) {
      for (Var v : marked) UnmarkSeen(v);
      return false;
    }
    const Lit cur = pending.back();
    pending.pop_back();
    const Reason reason = prop_.ReasonOf(VarOf(cur));
    if (!implied_kind(reason.kind)) {
      for (Var v : marked) UnmarkSeen(v);
      return false;
    }
    for (const Lit q : prop_.ReasonLits(reason, Negate(cur))) {
      if (q == Negate(cur)) continue;
      const Var v = VarOf(q);
      if (Seen(v) || prop_.LevelOf(v) == 0) continue;
      MarkSeen(v);
      marked.push_back(v);
      pending.push_back(q);
    }
  }
  // Keep the marks: anything proven redundant stays covered for later
  // literals of the same learnt clause.
  return true;
}

void Searcher::CancelUntil(std::uint32_t level) {
  prop_.CancelUntil(level);
  decision_head_ = 0;
  tail_head_ = 0;
}

SolveResult Searcher::Search() {
  decision_head_ = 0;
  tail_head_ = 0;
  for (;;) {
    const Conflict conflict = prop_.Propagate();
    if (conflict.IsConflict()) {
      ++stats_.conflicts;
      if (prop_.DecisionLevel() == 0) return SolveResult::Unsat;
      std::vector<Lit> learnt;
      std::uint32_t backjump = 0;
      Analyze(conflict, learnt, backjump);
      CancelUntil(backjump);
      if (learnt.size() == 1) {
        if (prop_.LitValue(learnt[0]) == Value::False) {
          return SolveResult::Unsat;
        }
        if (prop_.LitValue(learnt[0]) == Value::Unassigned) {
          prop_.AddLearnedUnit(learnt[0]);
          prop_.Enqueue(learnt[0], {Reason::Kind::None, 0});  // root fact
        }
      } else {
        const std::uint32_t ci = prop_.AddLearned(learnt);
        ++stats_.learned_clauses;
        prop_.Enqueue(learnt[0], {Reason::Kind::Clause, ci});
      }
      continue;
    }
    Lit decision;
    if (!PickBranch(decision)) return SolveResult::Sat;
    ++stats_.decisions;
    prop_.PushDecision(decision);
  }
}

}  // namespace bistdse::sat
