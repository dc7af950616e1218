#include "sat/propagator.hpp"

namespace bistdse::sat {

void Propagator::Reset(const Formula& formula) {
  formula_ = &formula;
  const std::size_t vars = formula.VarCount();
  assigns_.assign(vars, Value::Unassigned);
  levels_.assign(vars, 0);
  reasons_.assign(vars, {});
  trail_pos_.assign(vars, 0);
  trail_.clear();
  trail_.reserve(vars);
  trail_lim_.clear();
  qhead_ = 0;

  const std::uint32_t clauses =
      formula.ClauseCount() +
      static_cast<std::uint32_t>(learned_begin_.size() - 1);
  watch_head_.assign(2 * vars, kNoWatch);
  next_watch_.assign(2 * clauses, kNoWatch);
  watched_.assign(2 * clauses, kNoLit);
  for (std::uint32_t c = 0; c < clauses; ++c) {
    const auto lits = ClauseLits(c);
    Watch(2 * c, lits[0]);
    Watch(2 * c + 1, lits[1]);
  }

  pb_slack_.resize(formula.PbCount());
  for (std::uint32_t pb = 0; pb < formula.PbCount(); ++pb) {
    pb_slack_[pb] = formula.PbInitialSlack(pb);
  }
}

std::span<const Lit> Propagator::ClauseLits(std::uint32_t c) const {
  const std::uint32_t originals = formula_->ClauseCount();
  if (c < originals) return formula_->Clause(c);
  c -= originals;
  return {learned_lits_.data() + learned_begin_[c],
          learned_lits_.data() + learned_begin_[c + 1]};
}

std::uint32_t Propagator::AddLearned(std::span<const Lit> lits) {
  const auto c = static_cast<std::uint32_t>(watched_.size() / 2);
  learned_lits_.insert(learned_lits_.end(), lits.begin(), lits.end());
  learned_begin_.push_back(static_cast<std::uint32_t>(learned_lits_.size()));
  watched_.resize(watched_.size() + 2);
  next_watch_.resize(next_watch_.size() + 2);
  Watch(2 * c, lits[0]);
  Watch(2 * c + 1, lits[1]);
  return c;
}

void Propagator::Enqueue(Lit l, Reason reason) {
  const Var v = VarOf(l);
  assigns_[v] = IsNeg(l) ? Value::False : Value::True;
  levels_[v] = DecisionLevel();
  reasons_[v] = reason;
  trail_pos_[v] = static_cast<std::uint32_t>(trail_.size());
  trail_.push_back(l);
}

void Propagator::PushDecision(Lit l) {
  trail_lim_.push_back(static_cast<std::uint32_t>(trail_.size()));
  Enqueue(l, {Reason::Kind::Decision, 0});
}

Conflict Propagator::Propagate() {
  const Formula& f = *formula_;
  while (qhead_ < trail_.size()) {
    const Lit p = trail_[qhead_++];
    ++stats_.propagations;
    const Lit false_lit = Negate(p);

    // --- PB counter maintenance first -----------------------------------
    // Slack tracks the processed trail prefix exactly, so every decrement
    // for p must land before any conflict return from this iteration: a
    // binary/clause conflict below (or a conflict part-way through this
    // list) would otherwise leave p half-updated while CancelUntil — which
    // only knows processed-or-not — restores it in full. The historical
    // solver ran the clause pass first and returned mid-list; the leaked
    // slack masked later PB conflicts and let invalid models through
    // (found by differential fuzzing, tools/sat_fuzz).
    const auto pb_occs = f.PbOccurrences(false_lit);
    Conflict pb_conflict{};
    for (const PbOccurrence& occ : pb_occs) {
      pb_slack_[occ.pb] -= occ.coef;
      if (pb_slack_[occ.pb] < 0 && !pb_conflict.IsConflict()) {
        pb_conflict.reason = {Reason::Kind::Pb, occ.pb};
      }
    }
    if (pb_conflict.IsConflict()) return pb_conflict;
    for (const PbOccurrence& occ : pb_occs) {
      const std::int64_t slack = pb_slack_[occ.pb];
      if (f.PbMaxCoef(occ.pb) <= slack) continue;
      for (const PbTerm& t : f.PbTerms(occ.pb)) {
        if (t.coef > slack && LitValue(t.lit) == Value::Unassigned) {
          Enqueue(t.lit, {Reason::Kind::Pb, occ.pb});
          ++stats_.pb_propagations;
        }
      }
    }

    // --- binary-implication adjacency ----------------------------------
    for (const Lit q : f.Implications(p)) {
      const Value val = LitValue(q);
      if (val == Value::True) continue;
      if (val == Value::False) {
        return {{Reason::Kind::Binary, p}, q};
      }
      Enqueue(q, {Reason::Kind::Binary, p});
      ++stats_.binary_propagations;
    }

    // --- two-watched-literal clause propagation -------------------------
    std::uint32_t* link = &watch_head_[false_lit];
    while (*link != kNoWatch) {
      const std::uint32_t w = *link;
      const std::uint32_t c = w / 2;
      const Lit other = watched_[w ^ 1];
      if (LitValue(other) == Value::True) {
        link = &next_watch_[w];
        continue;
      }
      Lit replacement = kNoLit;
      for (const Lit l : ClauseLits(c)) {
        if (l != false_lit && l != other && LitValue(l) != Value::False) {
          replacement = l;
          break;
        }
      }
      if (replacement != kNoLit) {
        *link = next_watch_[w];  // unlink, then watch the replacement
        Watch(w, replacement);
        continue;
      }
      // Unit or conflict on the other watch.
      if (LitValue(other) == Value::False) {
        return {{Reason::Kind::Clause, c}};
      }
      Enqueue(other, {Reason::Kind::Clause, c});
      link = &next_watch_[w];
    }
  }
  return {};
}

void Propagator::CancelUntil(std::uint32_t level) {
  if (trail_lim_.size() <= level) return;
  const std::size_t target = trail_lim_[level];
  while (trail_.size() > target) {
    // PB slacks track the *processed* trail prefix: a conflict can leave
    // enqueued-but-unprocessed literals whose slack contribution was never
    // subtracted, so only processed literals may be restored. The
    // historical solver restored every popped literal, inflating slack past
    // its true value — the second PB slack bug fuzzing found (see
    // Propagate).
    const bool processed = trail_.size() <= qhead_;
    const Lit p = trail_.back();
    trail_.pop_back();
    const Var v = VarOf(p);
    assigns_[v] = Value::Unassigned;
    reasons_[v] = {Reason::Kind::None, 0};
    if (!processed) continue;
    for (const PbOccurrence& occ : formula_->PbOccurrences(Negate(p))) {
      pb_slack_[occ.pb] += occ.coef;
    }
  }
  trail_lim_.resize(level);
  qhead_ = trail_.size();
}

std::vector<Lit> Propagator::ReasonLits(Reason reason, Lit implied) const {
  switch (reason.kind) {
    case Reason::Kind::Clause: {
      const auto lits = ClauseLits(reason.index);
      return {lits.begin(), lits.end()};
    }
    case Reason::Kind::Binary: {
      // Clause (implied v ~premise); the premise literal is in `index`.
      std::vector<Lit> lits;
      if (implied != kNoLit) lits.push_back(implied);
      lits.push_back(Negate(static_cast<Lit>(reason.index)));
      return lits;
    }
    case Reason::Kind::Pb: {
      std::vector<Lit> lits;
      if (implied != kNoLit) lits.push_back(implied);
      const std::uint32_t implied_pos =
          implied == kNoLit ? static_cast<std::uint32_t>(trail_.size())
                            : trail_pos_[VarOf(implied)];
      for (const PbTerm& t : formula_->PbTerms(reason.index)) {
        if (LitValue(t.lit) == Value::False &&
            trail_pos_[VarOf(t.lit)] < implied_pos) {
          lits.push_back(t.lit);
        }
      }
      return lits;
    }
    default:
      return {};
  }
}

std::vector<Lit> Propagator::ConflictLits(const Conflict& conflict) const {
  if (conflict.reason.kind == Reason::Kind::Binary) {
    return {conflict.binary_other,
            Negate(static_cast<Lit>(conflict.reason.index))};
  }
  return ReasonLits(conflict.reason, kNoLit);
}

}  // namespace bistdse::sat
