// Shared vocabulary of the layered SAT core: literals, truth values, solver
// configuration and the per-phase statistics threaded through the DSE decode
// telemetry (dse::DecoderStats -> ExploreParallel -> bench_explore).
//
// The layering (paper [17] SAT-decoding, modernized after dawn's searcher):
//
//   ClauseDb     — clause arena + watch lists, dedicated binary-implication
//                  graph, PB constraint store, equivalent-literal map
//   Propagator   — assignment trail; unified clause/binary/PB propagation
//   Searcher     — CDCL loop: pinned genotype decision policy, then
//                  ascending-index tail; Luby restarts, LBD-based reduction
//   Inprocessor  — root-level simplification between solves: failed-literal
//                  probing, SCC equivalent-literal elimination, subsumption
//   Solver       — thin facade preserving the historical call sites
#pragma once

#include <cstdint>

namespace bistdse::sat {

using Var = std::uint32_t;
/// Literal encoding: lit = 2*var + (negated ? 1 : 0).
using Lit = std::uint32_t;

constexpr Lit PosLit(Var v) { return 2 * v; }
constexpr Lit NegLit(Var v) { return 2 * v + 1; }
constexpr Var VarOf(Lit l) { return l >> 1; }
constexpr bool IsNeg(Lit l) { return l & 1; }
constexpr Lit Negate(Lit l) { return l ^ 1; }

constexpr Lit kNoLit = static_cast<Lit>(-1);

enum class Value : std::uint8_t { False = 0, True = 1, Unassigned = 2 };

enum class SolveResult : std::uint8_t { Sat, Unsat };

/// Counters exposed through Solver::Stats(). The per-phase groups (search /
/// propagation / inprocessing) feed the `decode` section of
/// BENCH_explore.json via dse::DecoderStats.
struct SolverStats {
  // Search.
  std::uint64_t solves = 0;
  std::uint64_t decisions = 0;
  std::uint64_t conflicts = 0;
  std::uint64_t restarts = 0;
  std::uint64_t learned_clauses = 0;
  /// Learned clauses deleted by the LBD-driven reduction.
  std::uint64_t reduced_clauses = 0;

  // Propagation (propagations counts trail literals processed; the
  // binary/pb counters count implications enqueued by that engine).
  std::uint64_t propagations = 0;
  std::uint64_t binary_propagations = 0;
  std::uint64_t pb_propagations = 0;

  // Inprocessing.
  std::uint64_t inprocess_runs = 0;
  /// Literals probed at the root (both phases counted individually).
  std::uint64_t probes = 0;
  /// Probes that failed and therefore asserted the negation as a root fact.
  std::uint64_t probed_literals = 0;
  /// Variables merged into an equivalence-class representative (SCC pass).
  std::uint64_t eliminated_equivalences = 0;
  std::uint64_t subsumed_clauses = 0;
  /// Literals removed from clauses by self-subsuming resolution.
  std::uint64_t strengthened_clauses = 0;

  void MergeFrom(const SolverStats& o) {
    solves += o.solves;
    decisions += o.decisions;
    conflicts += o.conflicts;
    restarts += o.restarts;
    learned_clauses += o.learned_clauses;
    reduced_clauses += o.reduced_clauses;
    propagations += o.propagations;
    binary_propagations += o.binary_propagations;
    pb_propagations += o.pb_propagations;
    inprocess_runs += o.inprocess_runs;
    probes += o.probes;
    probed_literals += o.probed_literals;
    eliminated_equivalences += o.eliminated_equivalences;
    subsumed_clauses += o.subsumed_clauses;
    strengthened_clauses += o.strengthened_clauses;
  }
};

/// Solver behavior knobs. None of them changes a decoded model: a solve
/// returns the lexicographically first model under the static decision
/// order (see Searcher), and the knobs only change how fast it gets there.
/// So inprocessing (which is model-set-preserving) defaults to on without
/// perturbing Pareto fronts.
struct SolverConfig {
  /// Master switch for the inprocessing module (probing + SCC equivalent
  /// literals + subsumption). Runs before the first search and again after
  /// every `inprocess_conflict_interval` accumulated conflicts.
  bool inprocess = true;
  std::uint64_t inprocess_conflict_interval = 2000;

  /// LBD-based learned-clause reduction at restart boundaries triggers once
  /// this many learned long clauses are live.
  std::size_t reduce_min_learned = 2000;
};

/// Why a variable holds its value. `index` is a clause index (Clause), a PB
/// constraint index (Pb), or the premise literal (Binary: premise -> this).
struct Reason {
  enum class Kind : std::uint8_t { None, Decision, Clause, Binary, Pb } kind =
      Kind::None;
  std::uint32_t index = 0;
};

}  // namespace bistdse::sat
