// Search loop of the layered SAT core (dawn-style searcher). Decisions
// follow one static order: the pinned SAT-decoding policy first (genotype
// order + phases), then every other variable in ascending index with phase
// false. A solve therefore returns the lexicographically first model under
// that order, whatever learning did on the way (tools/sat_fuzz checks this
// against a DFS oracle). 1-UIP clause learning with recursive minimization
// and non-chronological backjumping; learned clauses are kept for every
// later solve.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "sat/propagator.hpp"
#include "sat/types.hpp"

namespace bistdse::sat {

class Searcher {
 public:
  Searcher(Propagator& prop, SolverStats& stats)
      : prop_(prop), stats_(stats) {}

  /// Grows the per-variable state to `vars` variables, keeping the policy.
  void Resize(std::size_t vars);

  /// Installs the SAT-decoding branching policy: variables are decided in
  /// `order` (earlier = higher priority) with the given preferred phase;
  /// the rest follow in ascending index with phase false.
  void SetDecisionPolicy(std::span<const Var> order,
                         std::span<const std::uint8_t> phases);

  /// Runs the CDCL loop from the current root state until a model is found
  /// or the instance is refuted. The caller must have propagated the root
  /// level conflict-free.
  SolveResult Search();

 private:
  bool PickBranch(Lit& decision);
  /// 1-UIP analysis; fills the learnt clause (asserting literal first, a
  /// highest-level literal second) and the backjump level.
  void Analyze(const Conflict& conflict, std::vector<Lit>& learnt,
               std::uint32_t& backjump_level);
  bool LitRedundant(Lit lit);
  void CancelUntil(std::uint32_t level);

  bool Seen(Var v) const { return seen_[v] == seen_stamp_; }
  void MarkSeen(Var v) { seen_[v] = seen_stamp_; }
  void UnmarkSeen(Var v) { seen_[v] = 0; }

  Propagator& prop_;
  SolverStats& stats_;

  std::vector<Var> order_;            // pinned policy prefix
  std::vector<std::uint8_t> phase_;   // per var, valid for policy vars
  std::vector<std::uint8_t> in_policy_;
  std::size_t decision_head_ = 0;
  Var tail_head_ = 0;

  std::vector<std::uint32_t> seen_;
  std::uint32_t seen_stamp_ = 0;
};

}  // namespace bistdse::sat
