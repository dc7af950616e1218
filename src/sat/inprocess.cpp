#include "sat/inprocess.hpp"

#include <algorithm>

namespace bistdse::sat {

namespace {
/// Cap on trail literals enqueued by one probing pass (keeps the pass a
/// bounded fraction of search work on very large encodings).
constexpr std::uint64_t kProbeBudget = 2'000'000;
/// Work bound (literal touches) for one subsumption pass.
constexpr std::uint64_t kSubsumeBudget = 20'000'000;
}  // namespace

bool Inprocessor::Run() {
  ++stats_.inprocess_runs;
  if (prop_.DecisionLevel() != 0) return true;
  if (prop_.Propagate().IsConflict()) return false;
  pending_units_.clear();

  if (!ProbeFailedLiterals()) return false;
  if (!EliminateEquivalentLiterals()) return false;

  // From here on constraints are rewritten in place, invalidating clause
  // indices stored as reasons. Root reasons are never dereferenced during
  // analysis, but drop them anyway so no stale index survives.
  prop_.ClearRootReasons();
  if (!Substitute()) return false;
  Subsume();

  db_.RebuildWatches();
  db_.RebuildBinaryAdjacency();
  db_.RebuildPbOccurrences();
  prop_.RecomputePbSlacks();
  if (!FlushPendingUnits()) return false;
  if (prop_.Propagate().IsConflict()) return false;
  return true;
}

bool Inprocessor::ProbeFailedLiterals() {
  std::uint64_t budget = kProbeBudget;
  const Var n = static_cast<Var>(prop_.VarCount());
  for (Var v = 0; v < n && budget > 0; ++v) {
    if (!db_.IsRepresentative(v)) continue;
    for (const Lit lit : {PosLit(v), NegLit(v)}) {
      if (budget == 0) break;
      if (prop_.ValueOfVar(v) != Value::Unassigned) break;
      // Only literals with binary successors are worth probing: anything a
      // successor-free literal implies, plain unit propagation finds later
      // at the same cost.
      if (db_.Implications(lit).empty()) continue;
      ++stats_.probes;
      const std::size_t before = prop_.Trail().size();
      prop_.PushDecision(lit);
      const Conflict conflict = prop_.Propagate();
      const std::uint64_t grown =
          static_cast<std::uint64_t>(prop_.Trail().size() - before);
      budget = grown >= budget ? 0 : budget - grown;
      prop_.CancelUntil(0);
      if (conflict.IsConflict()) {
        ++stats_.probed_literals;
        prop_.Enqueue(Negate(lit), {Reason::Kind::None, 0});
        if (prop_.Propagate().IsConflict()) return false;
      }
    }
  }
  return true;
}

bool Inprocessor::ProcessScc(const std::vector<Lit>& component) {
  if (component.size() < 2) return true;
  // A literal and its negation in one SCC means l <-> ~l: refuted.
  std::vector<Lit> sorted(component);
  std::sort(sorted.begin(), sorted.end());
  for (std::size_t i = 0; i + 1 < sorted.size(); ++i) {
    if (VarOf(sorted[i]) == VarOf(sorted[i + 1])) return false;
  }
  // Root-assigned components were already equalized by propagation.
  for (const Lit l : component) {
    if (prop_.ValueOfVar(VarOf(l)) != Value::Unassigned) return true;
  }
  std::vector<Lit> candidates;
  for (const Lit l : sorted) {
    if (db_.IsRepresentative(VarOf(l))) candidates.push_back(l);
  }
  if (candidates.size() < 2) return true;
  const Lit root = candidates.front();  // smallest literal, deterministic
  for (std::size_t i = 1; i < candidates.size(); ++i) {
    const Lit l = candidates[i];
    db_.SetRepresentative(VarOf(l), IsNeg(l) ? Negate(root) : root);
    ++stats_.eliminated_equivalences;
  }
  return true;
}

bool Inprocessor::EliminateEquivalentLiterals() {
  // Iterative Tarjan SCC over the binary-implication graph (2n nodes).
  const std::size_t n = 2 * prop_.VarCount();
  std::vector<std::uint32_t> index(n, 0), low(n, 0);
  std::vector<std::uint8_t> on_stack(n, 0);
  std::vector<Lit> stack;
  std::uint32_t next_index = 1;
  struct Frame {
    Lit node;
    std::size_t edge;
  };
  std::vector<Frame> frames;
  std::vector<Lit> component;

  for (Lit root = 0; root < n; ++root) {
    if (index[root] != 0) continue;
    frames.push_back({root, 0});
    index[root] = low[root] = next_index++;
    stack.push_back(root);
    on_stack[root] = 1;
    while (!frames.empty()) {
      Frame& f = frames.back();
      const auto& adj = db_.Implications(f.node);
      if (f.edge < adj.size()) {
        const Lit w = adj[f.edge++];
        if (index[w] == 0) {
          index[w] = low[w] = next_index++;
          stack.push_back(w);
          on_stack[w] = 1;
          frames.push_back({w, 0});
        } else if (on_stack[w]) {
          low[f.node] = std::min(low[f.node], index[w]);
        }
        continue;
      }
      if (low[f.node] == index[f.node]) {
        component.clear();
        for (;;) {
          const Lit w = stack.back();
          stack.pop_back();
          on_stack[w] = 0;
          component.push_back(w);
          if (w == f.node) break;
        }
        if (!ProcessScc(component)) return false;
      }
      const Lit done = f.node;
      frames.pop_back();
      if (!frames.empty()) {
        low[frames.back().node] = std::min(low[frames.back().node], low[done]);
      }
    }
  }
  return true;
}

bool Inprocessor::Substitute() {
  return SubstituteLongClauses() && SubstituteBinaries() && SubstitutePbs();
}

bool Inprocessor::SubstituteLongClauses() {
  const std::size_t nlits = 2 * prop_.VarCount();
  std::vector<std::uint32_t> stamp(nlits, 0);
  std::uint32_t cur = 0;
  std::vector<Lit> kept;
  for (std::uint32_t ci = 0; ci < db_.ClauseCount(); ++ci) {
    Clause& cl = db_.ClauseAt(ci);
    if (cl.removed) continue;
    ++cur;
    kept.clear();
    bool satisfied = false, tautology = false, changed = false;
    for (const Lit l : cl.lits) {
      const Lit r = db_.Resolve(l);
      const Value v = prop_.LitValue(r);
      if (v == Value::True) {
        satisfied = true;
        break;
      }
      if (v == Value::False) {
        changed = true;
        continue;
      }
      if (stamp[r] == cur) {  // duplicate after merging
        changed = true;
        continue;
      }
      if (stamp[Negate(r)] == cur) {
        tautology = true;
        break;
      }
      stamp[r] = cur;
      kept.push_back(r);
      if (r != l) changed = true;
    }
    if (satisfied || tautology) {
      db_.Remove(ci);
      continue;
    }
    if (kept.empty()) return false;
    if (kept.size() == 1) {
      QueueUnit(kept[0]);
      db_.Remove(ci);
      continue;
    }
    if (kept.size() == 2) {
      db_.AddBinary(kept[0], kept[1]);
      db_.Remove(ci);
      continue;
    }
    if (changed) cl.lits = kept;
  }
  return true;
}

bool Inprocessor::SubstituteBinaries() {
  auto& bins = db_.MutableBinaries();
  std::vector<std::pair<Lit, Lit>> kept;
  kept.reserve(bins.size());
  for (const auto& [a, b] : bins) {
    const Lit ra = db_.Resolve(a);
    const Lit rb = db_.Resolve(b);
    const Value va = prop_.LitValue(ra);
    const Value vb = prop_.LitValue(rb);
    if (va == Value::True || vb == Value::True) continue;
    if (va == Value::False && vb == Value::False) return false;
    if (va == Value::False) {
      QueueUnit(rb);
      continue;
    }
    if (vb == Value::False) {
      QueueUnit(ra);
      continue;
    }
    if (ra == rb) {
      QueueUnit(ra);
      continue;
    }
    if (ra == Negate(rb)) continue;  // tautology
    kept.emplace_back(ra, rb);
  }
  bins = std::move(kept);
  return true;
}

bool Inprocessor::SubstitutePbs() {
  const std::size_t nlits = 2 * prop_.VarCount();
  std::vector<std::uint32_t> stamp(nlits, 0);
  std::vector<std::int64_t> coef_of(nlits, 0);
  std::uint32_t cur = 0;
  std::vector<Lit> order;
  for (std::uint32_t pi = 0; pi < db_.PbCount(); ++pi) {
    PbConstraint& pb = db_.PbAt(pi);
    if (pb.removed) continue;
    ++cur;
    order.clear();
    std::int64_t bound = pb.bound;
    for (const auto& [c, l] : pb.terms) {
      const Lit r = db_.Resolve(l);
      const Value v = prop_.LitValue(r);
      if (v == Value::True) {
        bound -= c;
        continue;
      }
      if (v == Value::False) continue;
      if (stamp[r] != cur) {
        stamp[r] = cur;
        coef_of[r] = 0;
        order.push_back(r);
      }
      coef_of[r] += c;
    }
    // a*l + b*~l = min(a,b) + (a-min)*l resp. (b-min)*~l.
    for (const Lit l : order) {
      const Lit neg = Negate(l);
      if (stamp[neg] != cur || IsNeg(l)) continue;  // handle each pair once
      const std::int64_t m = std::min(coef_of[l], coef_of[neg]);
      bound -= m;
      coef_of[l] -= m;
      coef_of[neg] -= m;
    }
    if (bound <= 0) {  // trivially satisfied
      db_.RemovePb(pi);
      continue;
    }
    pb.terms.clear();
    std::int64_t total = 0;
    for (const Lit l : order) {
      if (coef_of[l] <= 0) continue;
      const std::int64_t c = std::min(coef_of[l], bound);
      pb.terms.emplace_back(c, l);
      total += c;
    }
    if (total < bound) return false;  // unreachable bound: refuted
    pb.bound = bound;
    pb.slack = total - bound;
    for (const auto& [c, l] : pb.terms) {
      if (c > pb.slack) QueueUnit(l);
    }
  }
  return true;
}

void Inprocessor::Subsume() {
  const std::size_t nlits = 2 * prop_.VarCount();
  const auto nclauses = static_cast<std::uint32_t>(db_.ClauseCount());
  std::vector<std::vector<std::uint32_t>> occ(nlits);
  std::vector<std::uint64_t> sig(nclauses, 0);
  std::vector<std::uint32_t> live;
  for (std::uint32_t ci = 0; ci < nclauses; ++ci) {
    const Clause& cl = db_.ClauseAt(ci);
    if (cl.removed) continue;
    live.push_back(ci);
    for (const Lit l : cl.lits) {
      occ[l].push_back(ci);
      sig[ci] |= std::uint64_t{1} << (VarOf(l) & 63);
    }
  }
  std::vector<std::uint32_t> mark(nlits, 0);
  std::uint32_t stamp = 0;
  std::uint64_t budget = kSubsumeBudget;

  // Tries to subsume or strengthen clauses containing the probe literal of
  // `lits` (the clause acting as subsumer); `self` is its own index (or
  // UINT32_MAX for a binary clause).
  auto sweep = [&](const std::vector<Lit>& lits, std::uint64_t lits_sig,
                   std::uint32_t self) {
    Lit probe = lits[0];
    for (const Lit l : lits) {
      if (occ[l].size() < occ[probe].size()) probe = l;
    }
    // occ[probe] holds the subsumption candidates and the strengthenings
    // whose flipped literal is not the probe; occ[~probe] holds the
    // strengthenings that drop ~probe itself — the single-flip check below
    // covers both uniformly.
    for (const Lit side : {probe, Negate(probe)})
    for (const std::uint32_t di : occ[side]) {
      if (budget == 0) return;
      if (di == self) continue;
      Clause& target = db_.ClauseAt(di);
      if (target.removed) continue;
      if (target.lits.size() < lits.size()) continue;
      if ((lits_sig & ~sig[di]) != 0) continue;
      budget -= std::min<std::uint64_t>(
          budget, target.lits.size() + lits.size());
      ++stamp;
      for (const Lit l : target.lits) mark[l] = stamp;
      Lit flipped = kNoLit;
      bool applicable = true;
      for (const Lit l : lits) {
        if (mark[l] == stamp) continue;
        if (mark[Negate(l)] == stamp && flipped == kNoLit) {
          flipped = Negate(l);
          continue;
        }
        applicable = false;
        break;
      }
      if (!applicable) continue;
      if (flipped == kNoLit) {
        db_.Remove(di);
        ++stats_.subsumed_clauses;
        continue;
      }
      // Self-subsuming resolution: the resolvent subsumes `target`, so the
      // flipped literal can be dropped from it.
      target.lits.erase(
          std::find(target.lits.begin(), target.lits.end(), flipped));
      ++stats_.strengthened_clauses;
      if (target.lits.size() == 2) {
        db_.AddBinary(target.lits[0], target.lits[1]);
        db_.Remove(di);
      } else if (target.lits.size() == 1) {
        QueueUnit(target.lits[0]);
        db_.Remove(di);
      }
    }
  };

  // Binaries first: cheapest subsumers with the widest reach. Snapshot the
  // count — strengthening appends new binaries we must not iterate.
  const std::size_t nbins = db_.Binaries().size();
  std::vector<Lit> pair(2);
  for (std::size_t i = 0; i < nbins && budget > 0; ++i) {
    const auto [a, b] = db_.Binaries()[i];
    pair[0] = a;
    pair[1] = b;
    const std::uint64_t s = (std::uint64_t{1} << (VarOf(a) & 63)) |
                            (std::uint64_t{1} << (VarOf(b) & 63));
    sweep(pair, s, UINT32_MAX);
  }
  // Then long clauses, smallest first.
  std::sort(live.begin(), live.end(), [&](std::uint32_t a, std::uint32_t b) {
    const std::size_t sa = db_.ClauseAt(a).lits.size();
    const std::size_t sb = db_.ClauseAt(b).lits.size();
    if (sa != sb) return sa < sb;
    return a < b;
  });
  for (const std::uint32_t ci : live) {
    if (budget == 0) break;
    const Clause& cl = db_.ClauseAt(ci);
    if (cl.removed) continue;
    sweep(cl.lits, sig[ci], ci);
  }
}

bool Inprocessor::FlushPendingUnits() {
  for (const Lit l : pending_units_) {
    const Lit r = db_.Resolve(l);
    const Value v = prop_.LitValue(r);
    if (v == Value::False) return false;
    if (v == Value::True) continue;
    prop_.Enqueue(r, {Reason::Kind::None, 0});
  }
  pending_units_.clear();
  return true;
}

}  // namespace bistdse::sat
