#include "sat/formula.hpp"

#include <algorithm>
#include <map>
#include <stdexcept>
#include <string>

namespace bistdse::sat {

void Formula::CheckLit(Lit l) const {
  if (VarOf(l) >= vars_) {
    throw std::invalid_argument("literal of unknown variable " +
                                std::to_string(VarOf(l)));
  }
}

void Formula::AddClause(std::vector<Lit> lits) {
  for (const Lit l : lits) CheckLit(l);
  std::sort(lits.begin(), lits.end());
  lits.erase(std::unique(lits.begin(), lits.end()), lits.end());
  for (std::size_t i = 0; i + 1 < lits.size(); ++i) {
    if (VarOf(lits[i]) == VarOf(lits[i + 1])) return;  // l and ~l: tautology
  }
  if (lits.empty()) {
    unsat_ = true;
  } else if (lits.size() == 1) {
    units_.push_back(lits[0]);
  } else if (lits.size() == 2) {
    binaries_.emplace_back(lits[0], lits[1]);
    indexed_ = false;
  } else {
    clause_lits_.insert(clause_lits_.end(), lits.begin(), lits.end());
    clause_begin_.push_back(static_cast<std::uint32_t>(clause_lits_.size()));
  }
}

void Formula::AddPbGe(std::vector<std::pair<std::int64_t, Lit>> terms,
                      std::int64_t bound) {
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
    CheckLit(lit);
    by_lit[lit] += coef;
  }
  for (auto it = by_lit.begin(); it != by_lit.end(); ++it) {
    if (IsNeg(it->first)) continue;
    const auto neg = by_lit.find(Negate(it->first));
    if (neg == by_lit.end()) continue;
    const std::int64_t both = std::min(it->second, neg->second);
    it->second -= both;
    neg->second -= both;
    bound -= both;  // one of l/~l is always true
  }
  if (bound <= 0) return;  // trivially satisfied (also with no terms)

  // A coefficient above the bound counts only up to the bound.
  const std::size_t first = pb_terms_.size();
  std::int64_t total = 0;
  std::int64_t max_coef = 0;
  for (const auto& [lit, coef] : by_lit) {
    if (coef <= 0) continue;
    const std::int64_t clamped = std::min(coef, bound);
    pb_terms_.push_back({clamped, lit});
    total += clamped;
    max_coef = std::max(max_coef, clamped);
  }
  const std::int64_t slack = total - bound;
  if (slack < 0) {
    pb_terms_.resize(first);
    unsat_ = true;  // bound unreachable even with every literal true
    return;
  }
  // A term whose coefficient exceeds the slack holds in every model.
  for (std::size_t t = first; t < pb_terms_.size(); ++t) {
    if (pb_terms_[t].coef > slack) units_.push_back(pb_terms_[t].lit);
  }
  pb_begin_.push_back(static_cast<std::uint32_t>(pb_terms_.size()));
  pb_slack_.push_back(slack);
  pb_max_coef_.push_back(max_coef);
  indexed_ = false;
}

void Formula::AddPbLe(std::vector<std::pair<std::int64_t, Lit>> terms,
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

void Formula::AddAtMostOne(std::span<const Lit> lits) {
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

void Formula::AddExactlyOne(std::span<const Lit> lits) {
  AddClause({lits.begin(), lits.end()});
  AddAtMostOne(lits);
}

void Formula::Index() {
  if (indexed_) return;
  const std::size_t lits = 2 * vars_;

  // Counting sort of the implications (a v b): ~a -> b, ~b -> a, in
  // insertion order per premise.
  implied_begin_.assign(lits + 1, 0);
  for (const auto& [a, b] : binaries_) {
    ++implied_begin_[Negate(a) + 1];
    ++implied_begin_[Negate(b) + 1];
  }
  for (std::size_t l = 0; l < lits; ++l) {
    implied_begin_[l + 1] += implied_begin_[l];
  }
  implied_.assign(implied_begin_[lits], kNoLit);
  std::vector<std::uint32_t> fill(implied_begin_.begin(),
                                  implied_begin_.end() - 1);
  for (const auto& [a, b] : binaries_) {
    implied_[fill[Negate(a)]++] = b;
    implied_[fill[Negate(b)]++] = a;
  }

  pb_occ_begin_.assign(lits + 1, 0);
  for (const PbTerm& t : pb_terms_) ++pb_occ_begin_[t.lit + 1];
  for (std::size_t l = 0; l < lits; ++l) {
    pb_occ_begin_[l + 1] += pb_occ_begin_[l];
  }
  pb_occ_.assign(pb_occ_begin_[lits], {});
  fill.assign(pb_occ_begin_.begin(), pb_occ_begin_.end() - 1);
  for (std::uint32_t pb = 0; pb < PbCount(); ++pb) {
    for (const PbTerm& t : PbTerms(pb)) pb_occ_[fill[t.lit]++] = {pb, t.coef};
  }
  indexed_ = true;
}

}  // namespace bistdse::sat
