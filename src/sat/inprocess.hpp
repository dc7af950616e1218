// Root-level inprocessing between solves: failed-literal probing over the
// binary-implication graph, SCC-based equivalent-literal elimination,
// substitution of representatives through every constraint, and
// subsumption / self-subsuming strengthening of long clauses. All passes
// preserve the model set of the formula, so the pinned-policy model returned
// by the searcher is unchanged (solution reconstruction happens implicitly
// through ClauseDb::Resolve at readout).
#pragma once

#include <cstdint>
#include <vector>

#include "sat/clause_db.hpp"
#include "sat/propagator.hpp"
#include "sat/types.hpp"

namespace bistdse::sat {

class Inprocessor {
 public:
  Inprocessor(ClauseDb& db, Propagator& prop, SolverStats& stats)
      : db_(db), prop_(prop), stats_(stats) {}

  /// Runs one full inprocessing round at decision level 0. Returns false if
  /// the formula was refuted (root conflict), true otherwise.
  bool Run();

 private:
  bool ProbeFailedLiterals();
  /// Tarjan SCC over the binary-implication graph; merges every non-trivial
  /// component into a representative literal in ClauseDb's map.
  bool EliminateEquivalentLiterals();
  bool ProcessScc(const std::vector<Lit>& component);
  /// Rewrites every long clause, binary clause and PB constraint through the
  /// representative map and the root assignment. Discovered units are queued
  /// in pending_units_ (flushed by Run after occurrence rebuilds).
  bool Substitute();
  bool SubstituteLongClauses();
  bool SubstituteBinaries();
  bool SubstitutePbs();
  /// Forward subsumption and self-subsuming strengthening over live long
  /// clauses (binary clauses act as strengtheners too). Work-bounded.
  void Subsume();

  /// Records `l` as a root fact to assert after the rebuild step.
  void QueueUnit(Lit l) { pending_units_.push_back(l); }
  bool FlushPendingUnits();

  ClauseDb& db_;
  Propagator& prop_;
  SolverStats& stats_;

  std::vector<Lit> pending_units_;
};

}  // namespace bistdse::sat
