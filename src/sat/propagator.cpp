#include "sat/propagator.hpp"

namespace bistdse::sat {

void Propagator::AddVar() {
  assigns_.push_back(Value::Unassigned);
  levels_.push_back(0);
  reasons_.push_back({});
  trail_pos_.push_back(0);
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
    const auto& pb_occs = db_.PbOccurrences(false_lit);
    Conflict pb_conflict{};
    for (const std::uint32_t pi : pb_occs) {
      PbConstraint& pb = db_.PbAt(pi);
      for (const auto& [c, l] : pb.terms) {
        if (l == false_lit) {
          pb.slack -= c;
          break;
        }
      }
      if (pb.slack < 0 && pb_conflict.reason.kind == Reason::Kind::None) {
        pb_conflict.reason = {Reason::Kind::Pb, pi};
      }
    }
    if (pb_conflict.reason.kind != Reason::Kind::None) return pb_conflict;
    for (const std::uint32_t pi : pb_occs) {
      const PbConstraint& pb = db_.PbAt(pi);
      for (const auto& [c, l] : pb.terms) {
        if (c > pb.slack && LitValue(l) == Value::Unassigned) {
          Enqueue(l, {Reason::Kind::Pb, pi});
          ++stats_.pb_propagations;
        }
      }
    }

    // --- binary-implication adjacency ----------------------------------
    for (const Lit q : db_.Implications(p)) {
      const Value val = LitValue(q);
      if (val == Value::True) continue;
      if (val == Value::False) {
        return {{Reason::Kind::Binary, p}, q};
      }
      Enqueue(q, {Reason::Kind::Binary, p});
      ++stats_.binary_propagations;
    }

    // --- two-watched-literal clause propagation -------------------------
    auto& watches = db_.Watches(false_lit);
    std::size_t keep = 0;
    bool clause_conflict = false;
    std::uint32_t conflict_index = 0;
    for (std::size_t i = 0; i < watches.size(); ++i) {
      const std::uint32_t ci = watches[i];
      std::vector<Lit>& lits = db_.ClauseAt(ci);
      if (lits[0] == false_lit) std::swap(lits[0], lits[1]);
      if (LitValue(lits[0]) == Value::True) {
        watches[keep++] = ci;
        continue;
      }
      bool moved = false;
      for (std::size_t k = 2; k < lits.size(); ++k) {
        if (LitValue(lits[k]) != Value::False) {
          std::swap(lits[1], lits[k]);
          db_.Watches(lits[1]).push_back(ci);
          moved = true;
          break;
        }
      }
      if (moved) continue;
      // Unit or conflict on lits[0].
      watches[keep++] = ci;
      if (LitValue(lits[0]) == Value::False) {
        for (std::size_t j = i + 1; j < watches.size(); ++j)
          watches[keep++] = watches[j];
        clause_conflict = true;
        conflict_index = ci;
        break;
      }
      Enqueue(lits[0], {Reason::Kind::Clause, ci});
    }
    watches.resize(keep);
    if (clause_conflict) return {{Reason::Kind::Clause, conflict_index}};
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
    for (const std::uint32_t pi : db_.PbOccurrences(Negate(p))) {
      PbConstraint& pb = db_.PbAt(pi);
      for (const auto& [c, l] : pb.terms) {
        if (l == Negate(p)) {
          pb.slack += c;
          break;
        }
      }
    }
  }
  trail_lim_.resize(level);
  qhead_ = trail_.size();
}

std::vector<Lit> Propagator::ReasonLits(Reason reason, Lit implied) const {
  switch (reason.kind) {
    case Reason::Kind::Clause:
      return db_.ClauseAt(reason.index);
    case Reason::Kind::Binary: {
      // Clause (implied v ~premise); the premise literal is in `index`.
      std::vector<Lit> lits;
      if (implied != kNoLit) lits.push_back(implied);
      lits.push_back(Negate(static_cast<Lit>(reason.index)));
      return lits;
    }
    case Reason::Kind::Pb: {
      const PbConstraint& pb = db_.PbAt(reason.index);
      std::vector<Lit> lits;
      if (implied != kNoLit) lits.push_back(implied);
      const std::uint32_t implied_pos =
          implied == kNoLit ? static_cast<std::uint32_t>(trail_.size())
                            : trail_pos_[VarOf(implied)];
      for (const auto& [c, l] : pb.terms) {
        if (LitValue(l) == Value::False && trail_pos_[VarOf(l)] < implied_pos) {
          lits.push_back(l);
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
