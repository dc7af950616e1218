// Shared vocabulary of the layered SAT core: literals, truth values and the
// per-phase statistics threaded through the DSE decode telemetry
// (dse::DecoderStats -> ExploreParallel -> bench_explore).
//
// The layering (paper [17] SAT-decoding, modernized after dawn's searcher):
//
//   Formula      — append-only constraint store in flat arrays: root units,
//                  binary-implication graph, long clauses, PB constraints;
//                  read-only once shared, so several solvers search it
//   Propagator   — one solver's search state: assignment trail, watch lists,
//                  PB slacks, learned clauses; unified clause/binary/PB
//                  propagation
//   Searcher     — CDCL loop: pinned genotype decision policy, then
//                  ascending-index tail; 1-UIP learning and backjumping
//   Solver       — facade: builds its own formula or searches a shared one
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

/// Counters exposed through Solver::Stats(). The search and propagation
/// groups feed the `decode` section of BENCH_explore.json via
/// dse::DecoderStats.
struct SolverStats {
  // Search.
  std::uint64_t solves = 0;
  std::uint64_t decisions = 0;
  std::uint64_t conflicts = 0;
  std::uint64_t learned_clauses = 0;

  // Propagation (propagations counts trail literals processed; the
  // binary/pb counters count implications enqueued by that engine).
  std::uint64_t propagations = 0;
  std::uint64_t binary_propagations = 0;
  std::uint64_t pb_propagations = 0;

  void MergeFrom(const SolverStats& o) {
    solves += o.solves;
    decisions += o.decisions;
    conflicts += o.conflicts;
    learned_clauses += o.learned_clauses;
    propagations += o.propagations;
    binary_propagations += o.binary_propagations;
    pb_propagations += o.pb_propagations;
  }
};

/// Why a variable holds its value. `index` is a clause index (Clause), a PB
/// constraint index (Pb), or the premise literal (Binary: premise -> this).
struct Reason {
  enum class Kind : std::uint8_t { None, Decision, Clause, Binary, Pb } kind =
      Kind::None;
  std::uint32_t index = 0;
};

}  // namespace bistdse::sat
