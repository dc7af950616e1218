#include "sat/clause_db.hpp"

namespace bistdse::sat {

void ClauseDb::AddVar() {
  watches_.emplace_back();
  watches_.emplace_back();
  implications_.emplace_back();
  implications_.emplace_back();
  pb_occurrences_.emplace_back();
  pb_occurrences_.emplace_back();
}

std::uint32_t ClauseDb::AddLong(std::vector<Lit> lits) {
  const auto index = static_cast<std::uint32_t>(clauses_.size());
  watches_[lits[0]].push_back(index);
  watches_[lits[1]].push_back(index);
  clauses_.push_back(std::move(lits));
  return index;
}

void ClauseDb::AddBinary(Lit a, Lit b) {
  implications_[Negate(a)].push_back(b);
  implications_[Negate(b)].push_back(a);
}

std::uint32_t ClauseDb::AddPb(PbConstraint pb) {
  const auto index = static_cast<std::uint32_t>(pbs_.size());
  for (const auto& [coef, lit] : pb.terms) {
    pb_occurrences_[lit].push_back(index);
  }
  pbs_.push_back(std::move(pb));
  return index;
}

}  // namespace bistdse::sat
