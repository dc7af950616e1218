// Differential fuzzer for the SAT core (sat/solver.hpp) against a
// specification oracle.
//
// A decode is defined by a specification. The decision policy pins some
// variables, each with a preferred phase; the static order is the policy
// variables in policy order, then every other variable in ascending index
// with preferred phase false. A decode must return the lexicographically
// first model under that order. The oracle computes it directly: a
// chronological DFS over the static order, preferred phase first, that
// abandons a branch once some constraint has no satisfying completion. It
// shares no code with the solver.
//
// Per iteration a random CNF+PB instance is loaded into two solvers: one
// receives the constraints in order, the other in shuffled order. Each
// instance is solved under one to three random policies, full (every
// variable pinned) or partial (half pinned); learned clauses persist across
// solves, as in SAT-decoding. Every solve must match the oracle's verdict
// and, when SAT, its exact model. A mismatch prints the instance, the
// policy, both models and a command line that replays it.
//
// Usage: sat_fuzz [--iters N] [--seed S]   (defaults: 200 iterations, seed 1)
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "flags.hpp"
#include "sat/solver.hpp"
#include "util/rng.hpp"

namespace {

using bistdse::sat::IsNeg;
using bistdse::sat::Lit;
using bistdse::sat::NegLit;
using bistdse::sat::PosLit;
using bistdse::sat::Solver;
using bistdse::sat::Var;
using bistdse::sat::VarOf;
using bistdse::util::SplitMix64;

struct PbRecord {
  std::vector<std::pair<std::int64_t, Lit>> terms;
  std::int64_t bound = 0;
  bool is_ge = true;
};

/// One random instance, kept as plain constraint lists for the oracle.
struct Instance {
  std::size_t vars = 0;
  std::vector<std::vector<Lit>> clauses;
  std::vector<PbRecord> pbs;
};

Instance RandomInstance(SplitMix64& rng) {
  Instance inst;
  inst.vars = 8 + rng.Below(17);  // 8..24 variables
  const std::size_t n_clauses = inst.vars + rng.Below(2 * inst.vars);
  for (std::size_t i = 0; i < n_clauses; ++i) {
    // Mostly 2-4 literals; the occasional unit keeps root facts exercised.
    const std::size_t len = rng.Chance(0.08) ? 1 : 2 + rng.Below(3);
    std::vector<Lit> clause;
    for (std::size_t k = 0; k < len; ++k) {
      const Var v = static_cast<Var>(rng.Below(inst.vars));
      clause.push_back(rng.Chance(0.5) ? PosLit(v) : NegLit(v));
    }
    inst.clauses.push_back(std::move(clause));
  }
  const std::size_t n_pbs = rng.Below(4);
  for (std::size_t i = 0; i < n_pbs; ++i) {
    PbRecord pb;
    const std::size_t len = 2 + rng.Below(5);
    std::int64_t total = 0;
    for (std::size_t k = 0; k < len; ++k) {
      const auto coef = static_cast<std::int64_t>(1 + rng.Below(5));
      const Var v = static_cast<Var>(rng.Below(inst.vars));
      pb.terms.emplace_back(coef, rng.Chance(0.5) ? PosLit(v) : NegLit(v));
      total += coef;
    }
    pb.is_ge = rng.Chance(0.5);
    // Mostly satisfiable bounds; occasionally tight/infeasible ones.
    pb.bound = static_cast<std::int64_t>(rng.Below(
        static_cast<std::uint64_t>(total) + 2));
    inst.pbs.push_back(std::move(pb));
  }
  return inst;
}

void Load(Solver& solver, const Instance& inst,
          const std::vector<std::size_t>& clause_order,
          const std::vector<std::size_t>& pb_order) {
  for (std::size_t i = 0; i < inst.vars; ++i) solver.NewVar();
  for (const std::size_t ci : clause_order) {
    solver.AddClause(inst.clauses[ci]);
  }
  for (const std::size_t pi : pb_order) {
    const PbRecord& pb = inst.pbs[pi];
    auto terms = pb.terms;
    if (pb.is_ge) {
      solver.AddPbGe(std::move(terms), pb.bound);
    } else {
      solver.AddPbLe(std::move(terms), pb.bound);
    }
  }
}

struct Policy {
  std::vector<Var> order;
  std::vector<std::uint8_t> phases;
};

Policy RandomPolicy(SplitMix64& rng, std::size_t vars, bool full) {
  Policy p;
  std::vector<Var> all(vars);
  std::iota(all.begin(), all.end(), 0);
  for (std::size_t i = vars; i > 1; --i) {
    std::swap(all[i - 1], all[rng.Below(i)]);
  }
  const std::size_t take = full ? vars : vars / 2;
  p.order.assign(all.begin(), all.begin() + static_cast<std::ptrdiff_t>(take));
  for (std::size_t i = 0; i < take; ++i) {
    p.phases.push_back(rng.Chance(0.5) ? 1 : 0);
  }
  return p;
}

/// A decoded model (one value per variable), or nullopt for UNSAT.
using Model = std::optional<std::vector<std::uint8_t>>;

Model Decode(Solver& solver, std::size_t vars) {
  if (solver.Solve() != bistdse::sat::SolveResult::Sat) return std::nullopt;
  std::vector<std::uint8_t> model(vars);
  for (std::size_t v = 0; v < vars; ++v) {
    model[v] = solver.IsTrue(static_cast<Var>(v)) ? 1 : 0;
  }
  return model;
}

// --- specification oracle --------------------------------------------------

constexpr std::uint8_t kUnassigned = 2;

/// False once some constraint has no satisfying completion of the partial
/// assignment `a`: a clause with every literal false, a >= PB whose
/// non-false terms cannot reach the bound, or a <= PB whose true terms
/// already exceed it. Exact on a full assignment.
bool Consistent(const Instance& inst, const std::vector<std::uint8_t>& a) {
  const auto value = [&](Lit l) {
    const std::uint8_t v = a[VarOf(l)];
    return v == kUnassigned ? v : static_cast<std::uint8_t>(v ^ IsNeg(l));
  };
  for (const auto& clause : inst.clauses) {
    bool open = false;
    for (const Lit l : clause) open = open || value(l) != 0;
    if (!open) return false;
  }
  for (const PbRecord& pb : inst.pbs) {
    std::int64_t sum = 0;  // >=: the most still reachable; <=: the least
    for (const auto& [coef, lit] : pb.terms) {
      if (pb.is_ge ? value(lit) != 0 : value(lit) == 1) sum += coef;
    }
    if (pb.is_ge ? sum < pb.bound : sum > pb.bound) return false;
  }
  return true;
}

/// Assigns `order` from position `depth` on, preferred phase first, and
/// backtracks chronologically; true once every variable is assigned.
bool Dfs(const Instance& inst, const Policy& order, std::size_t depth,
         std::vector<std::uint8_t>& a) {
  if (depth == order.order.size()) return true;
  const Var v = order.order[depth];
  const std::uint8_t preferred = order.phases[depth];
  for (const std::uint8_t phase :
       {preferred, static_cast<std::uint8_t>(1 - preferred)}) {
    a[v] = phase;
    if (Consistent(inst, a) && Dfs(inst, order, depth + 1, a)) return true;
  }
  a[v] = kUnassigned;
  return false;
}

/// The expected decode: the lexicographically first model under the static
/// order (the policy, then the other variables ascending with phase false).
Model OracleModel(const Instance& inst, const Policy& policy) {
  Policy order = policy;
  std::vector<std::uint8_t> pinned(inst.vars, 0);
  for (const Var v : policy.order) pinned[v] = 1;
  for (Var v = 0; v < inst.vars; ++v) {
    if (pinned[v]) continue;
    order.order.push_back(v);
    order.phases.push_back(0);
  }
  std::vector<std::uint8_t> a(inst.vars, kUnassigned);
  if (!Consistent(inst, a) || !Dfs(inst, order, 0, a)) return std::nullopt;
  return a;
}

// --- mismatch report -------------------------------------------------------

std::string Bits(const Model& m) {
  if (!m) return "unsat";
  std::string bits;
  for (const std::uint8_t b : *m) bits += b ? '1' : '0';
  return bits;
}

void PrintLit(Lit l) {
  std::fprintf(stderr, "%s%u", IsNeg(l) ? "-" : "", VarOf(l));
}

/// Prints everything needed to reproduce a mismatch to stderr.
void ReportMismatch(const Instance& inst, const Policy& policy,
                    const Model& expected, const Model& got,
                    const char* solver, std::uint64_t seed,
                    std::uint64_t iter, std::size_t round) {
  std::fprintf(stderr, "iter %llu round %zu: solver '%s' %s the oracle\n",
               static_cast<unsigned long long>(iter), round, solver,
               expected.has_value() != got.has_value()
                   ? "disagrees on the verdict with"
                   : "returns another model than");
  std::fprintf(stderr, "vars=%zu\n", inst.vars);
  for (const auto& clause : inst.clauses) {
    std::fprintf(stderr, "clause:");
    for (const Lit l : clause) {
      std::fprintf(stderr, " ");
      PrintLit(l);
    }
    std::fprintf(stderr, "\n");
  }
  for (const PbRecord& pb : inst.pbs) {
    std::fprintf(stderr, "pb %s %lld:", pb.is_ge ? ">=" : "<=",
                 static_cast<long long>(pb.bound));
    for (const auto& [coef, lit] : pb.terms) {
      std::fprintf(stderr, " %lld*", static_cast<long long>(coef));
      PrintLit(lit);
    }
    std::fprintf(stderr, "\n");
  }
  std::fprintf(stderr, "policy (var:phase, %zu of %zu pinned):",
               policy.order.size(), inst.vars);
  for (std::size_t i = 0; i < policy.order.size(); ++i) {
    std::fprintf(stderr, " %u:%u", policy.order[i],
                 static_cast<unsigned>(policy.phases[i]));
  }
  std::fprintf(stderr, "\nmodels, var 0 first:\n  oracle: %s\n  %s: %s\n",
               Bits(expected).c_str(), solver, Bits(got).c_str());
  std::fprintf(stderr, "replay: sat_fuzz --seed %llu --iters %llu\n",
               static_cast<unsigned long long>(seed),
               static_cast<unsigned long long>(iter + 1));
}

constexpr bistdse::tools::FlagSpec kFlags[] = {
    {"iters", bistdse::tools::FlagKind::kU64},
    {"seed", bistdse::tools::FlagKind::kU64, "S"},
};
constexpr bistdse::tools::CommandSpec kCommand{
    "", kFlags, "defaults: 200 iterations, seed 1"};

}  // namespace

int main(int argc, char** argv) {
  const auto flags =
      bistdse::tools::ParseFlagsOrExit("sat_fuzz", kCommand, argc, argv, 1);
  const std::uint64_t iters = flags.U64("iters", 200);
  const std::uint64_t seed = flags.U64("seed", 1);

  // solvers[0] receives the constraints in order, solvers[1] shuffled.
  const char* const names[] = {"in-order", "shuffled"};

  std::uint64_t sat_count = 0, partial_count = 0, unsat_count = 0;
  std::uint64_t solve_count = 0;
  for (std::uint64_t iter = 0; iter < iters; ++iter) {
    SplitMix64 rng(seed * 0x9e3779b97f4a7c15ULL + iter);
    const Instance inst = RandomInstance(rng);

    std::vector<std::size_t> clause_order(inst.clauses.size());
    std::iota(clause_order.begin(), clause_order.end(), 0);
    std::vector<std::size_t> pb_order(inst.pbs.size());
    std::iota(pb_order.begin(), pb_order.end(), 0);
    std::vector<std::size_t> shuffled_clauses = clause_order;
    for (std::size_t i = shuffled_clauses.size(); i > 1; --i) {
      std::swap(shuffled_clauses[i - 1], shuffled_clauses[rng.Below(i)]);
    }
    std::vector<std::size_t> shuffled_pbs = pb_order;
    for (std::size_t i = shuffled_pbs.size(); i > 1; --i) {
      std::swap(shuffled_pbs[i - 1], shuffled_pbs[rng.Below(i)]);
    }

    Solver solvers[std::size(names)];
    Load(solvers[0], inst, clause_order, pb_order);
    Load(solvers[1], inst, shuffled_clauses, shuffled_pbs);

    // Several solves per instance: learned clauses persist, mirroring the
    // SAT-decoding usage pattern.
    const std::size_t rounds = 1 + rng.Below(3);
    for (std::size_t round = 0; round < rounds; ++round) {
      const bool full = rng.Chance(0.7);
      const Policy policy = RandomPolicy(rng, inst.vars, full);
      const Model expected = OracleModel(inst, policy);
      for (std::size_t k = 0; k < std::size(names); ++k) {
        solvers[k].SetDecisionPolicy(policy.order, policy.phases);
        const Model got = Decode(solvers[k], inst.vars);
        ++solve_count;
        if (got != expected) {
          ReportMismatch(inst, policy, expected, got, names[k], seed, iter,
                         round);
          return 1;
        }
      }
      if (!expected) {
        ++unsat_count;
        break;  // the instance stays unsat under every later policy
      }
      ++sat_count;
      partial_count += full ? 0 : 1;
    }
  }

  std::printf("sat_fuzz: %llu iterations, %llu solves (%llu sat rounds, %llu "
              "of them partial-policy; %llu unsat), every verdict and model "
              "equal to the oracle's\n",
              static_cast<unsigned long long>(iters),
              static_cast<unsigned long long>(solve_count),
              static_cast<unsigned long long>(sat_count),
              static_cast<unsigned long long>(partial_count),
              static_cast<unsigned long long>(unsat_count));
  return 0;
}
