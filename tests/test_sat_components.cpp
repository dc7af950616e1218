// Component-level tests for the layered SAT core: binary-implication
// propagation, SCC equivalent-literal elimination (with solution
// reconstruction through the representative map), failed-literal probing,
// LBD-driven learned-clause reduction, and decode canonicity across solver
// configurations.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <numeric>
#include <vector>

#include "sat/solver.hpp"
#include "util/rng.hpp"

namespace bistdse::sat {
namespace {

/// Full pinned policy: all variables in `order`, phases from `phase_bits`.
void PinAll(Solver& s, const std::vector<Var>& order,
            const std::vector<std::uint8_t>& phases) {
  s.SetDecisionPolicy(order, phases);
}

TEST(SatComponents, BinaryImplicationChainPropagates) {
  // a -> b -> c -> d as binary clauses; asserting a floods the chain through
  // the dedicated implication graph, not the clause watches.
  Solver s;
  const Var a = s.NewVar(), b = s.NewVar(), c = s.NewVar(), d = s.NewVar();
  s.AddClause({NegLit(a), PosLit(b)});
  s.AddClause({NegLit(b), PosLit(c)});
  s.AddClause({NegLit(c), PosLit(d)});
  s.AddClause({PosLit(a)});
  ASSERT_EQ(s.Solve(), SolveResult::Sat);
  EXPECT_TRUE(s.IsTrue(a));
  EXPECT_TRUE(s.IsTrue(b));
  EXPECT_TRUE(s.IsTrue(c));
  EXPECT_TRUE(s.IsTrue(d));
  EXPECT_GT(s.Stats().binary_propagations, 0u);
}

TEST(SatComponents, BinaryInsertionOrderDoesNotChangePinnedModel) {
  // The same binary implication set inserted in reversed order must decode
  // to the identical model under a full pinned policy (the adjacency is
  // rebuilt sorted, and the pinned-order model is canonical).
  util::SplitMix64 rng(31);
  for (int instance = 0; instance < 20; ++instance) {
    constexpr int n = 10;
    std::vector<std::array<Lit, 2>> bins;
    for (int j = 0; j < 18; ++j) {
      const Var u = static_cast<Var>(rng.Below(n));
      const Var v = static_cast<Var>(rng.Below(n));
      bins.push_back({rng.Chance(0.5) ? PosLit(u) : NegLit(u),
                      rng.Chance(0.5) ? PosLit(v) : NegLit(v)});
    }
    std::vector<Var> order(n);
    std::iota(order.begin(), order.end(), 0);
    for (std::size_t i = n; i > 1; --i) std::swap(order[i - 1], order[rng.Below(i)]);
    std::vector<std::uint8_t> phases(n);
    for (auto& p : phases) p = rng.Chance(0.5) ? 1 : 0;

    Solver fwd, rev;
    for (int i = 0; i < n; ++i) {
      fwd.NewVar();
      rev.NewVar();
    }
    for (const auto& cl : bins) fwd.AddClause({cl[0], cl[1]});
    for (auto it = bins.rbegin(); it != bins.rend(); ++it)
      rev.AddClause({(*it)[0], (*it)[1]});
    PinAll(fwd, order, phases);
    PinAll(rev, order, phases);
    const auto fr = fwd.Solve();
    ASSERT_EQ(fr, rev.Solve()) << "instance " << instance;
    if (fr != SolveResult::Sat) continue;
    for (int v = 0; v < n; ++v) {
      EXPECT_EQ(fwd.IsTrue(static_cast<Var>(v)),
                rev.IsTrue(static_cast<Var>(v)))
          << "instance " << instance << " var " << v;
    }
  }
}

TEST(SatComponents, SccMergesEquivalentLiterals) {
  // a -> b -> c -> a is one strongly connected component: inprocessing (on
  // by default, runs before the first search) collapses it to a single
  // representative, and ValueOf reconstructs the merged variables.
  Solver s;
  const Var a = s.NewVar(), b = s.NewVar(), c = s.NewVar(), d = s.NewVar();
  s.AddClause({NegLit(a), PosLit(b)});
  s.AddClause({NegLit(b), PosLit(c)});
  s.AddClause({NegLit(c), PosLit(a)});
  s.AddClause({PosLit(a), PosLit(d)});  // keeps the instance non-trivial
  ASSERT_EQ(s.Solve(), SolveResult::Sat);
  EXPECT_GE(s.Stats().inprocess_runs, 1u);
  EXPECT_GE(s.Stats().eliminated_equivalences, 2u);
  EXPECT_EQ(s.IsTrue(a), s.IsTrue(b));
  EXPECT_EQ(s.IsTrue(b), s.IsTrue(c));

  // The merged class must behave as one variable for later constraints too:
  // forcing b forces a and c through the representative.
  s.AddClause({PosLit(b)});
  ASSERT_EQ(s.Solve(), SolveResult::Sat);
  EXPECT_TRUE(s.IsTrue(a));
  EXPECT_TRUE(s.IsTrue(c));
}

TEST(SatComponents, SccContradictoryCycleIsUnsat) {
  // x ≡ y and x ≡ ¬y cannot both hold.
  Solver s;
  const Var x = s.NewVar(), y = s.NewVar();
  s.AddClause({NegLit(x), PosLit(y)});
  s.AddClause({NegLit(y), PosLit(x)});
  s.AddClause({PosLit(x), PosLit(y)});
  s.AddClause({NegLit(x), NegLit(y)});
  EXPECT_EQ(s.Solve(), SolveResult::Unsat);
}

TEST(SatComponents, FailedLiteralProbingAssertsRootFacts) {
  // Probing x propagates x -> a and x -> ~a, a root conflict, so ~x becomes
  // a root fact before any search decision happens.
  Solver s;
  const Var x = s.NewVar(), a = s.NewVar(), other = s.NewVar();
  s.AddClause({NegLit(x), PosLit(a)});
  s.AddClause({NegLit(x), NegLit(a)});
  s.AddClause({PosLit(x), PosLit(other)});
  // Pin x=true first: without the probe the searcher would have to conflict
  // its way out of the decision.
  const std::vector<Var> order = {x, a, other};
  const std::vector<std::uint8_t> phases = {1, 1, 1};
  s.SetDecisionPolicy(order, phases);
  ASSERT_EQ(s.Solve(), SolveResult::Sat);
  EXPECT_FALSE(s.IsTrue(x));
  EXPECT_TRUE(s.IsTrue(other));
  EXPECT_GT(s.Stats().probes, 0u);
  EXPECT_GE(s.Stats().probed_literals, 1u);
}

TEST(SatComponents, SubsumptionRemovesAndStrengthensClauses) {
  Solver s;
  std::vector<Var> v;
  for (int i = 0; i < 8; ++i) v.push_back(s.NewVar());
  // (v0 v1 v2) subsumes (v0 v1 v2 v3).
  s.AddClause({PosLit(v[0]), PosLit(v[1]), PosLit(v[2])});
  s.AddClause({PosLit(v[0]), PosLit(v[1]), PosLit(v[2]), PosLit(v[3])});
  // (v4 v5 v6 v7) self-subsumes against (~v4 v5 v6 v7): the resolvent
  // (v5 v6 v7) replaces one of them and then subsumes the other.
  s.AddClause({PosLit(v[4]), PosLit(v[5]), PosLit(v[6]), PosLit(v[7])});
  s.AddClause({NegLit(v[4]), PosLit(v[5]), PosLit(v[6]), PosLit(v[7])});
  ASSERT_EQ(s.Solve(), SolveResult::Sat);
  EXPECT_GE(s.Stats().subsumed_clauses, 1u);
  EXPECT_GE(s.Stats().strengthened_clauses, 1u);
  // The strengthened instance must still enforce the resolvent.
  s.AddClause({NegLit(v[5])});
  s.AddClause({NegLit(v[6])});
  ASSERT_EQ(s.Solve(), SolveResult::Sat);
  EXPECT_TRUE(s.IsTrue(v[7]));
}

TEST(SatComponents, LbdReductionStaysSound) {
  // Aggressive learned-clause reduction (threshold 8) on pigeonhole 7/6 —
  // enough conflicts for several restarts and reductions — must still prove
  // unsatisfiability.
  SolverConfig config;
  config.inprocess = false;  // isolate the reduction machinery
  config.reduce_min_learned = 8;
  Solver s(config);
  constexpr int P = 7, H = 6;
  Var x[P][H];
  for (int p = 0; p < P; ++p)
    for (int h = 0; h < H; ++h) x[p][h] = s.NewVar();
  for (int p = 0; p < P; ++p) {
    std::vector<Lit> lits;
    for (int h = 0; h < H; ++h) lits.push_back(PosLit(x[p][h]));
    s.AddClause(lits);
  }
  for (int h = 0; h < H; ++h)
    for (int p1 = 0; p1 < P; ++p1)
      for (int p2 = p1 + 1; p2 < P; ++p2)
        s.AddClause({NegLit(x[p1][h]), NegLit(x[p2][h])});
  EXPECT_EQ(s.Solve(), SolveResult::Unsat);
  EXPECT_GT(s.Stats().restarts, 0u);
  EXPECT_GT(s.Stats().reduced_clauses, 0u);
}

TEST(SatComponents, AggressiveReductionAgreesWithBruteForce) {
  util::SplitMix64 rng(404);
  SolverConfig config;
  config.reduce_min_learned = 4;
  config.inprocess_conflict_interval = 16;  // inprocess frequently as well
  for (int instance = 0; instance < 25; ++instance) {
    constexpr int n = 11, m = 46;
    std::vector<std::array<Lit, 3>> clauses;
    for (int j = 0; j < m; ++j) {
      std::array<Lit, 3> cl;
      for (int k = 0; k < 3; ++k) {
        const Var v = static_cast<Var>(rng.Below(n));
        cl[k] = rng.Chance(0.5) ? PosLit(v) : NegLit(v);
      }
      clauses.push_back(cl);
    }
    bool brute_sat = false;
    for (std::uint32_t a = 0; a < (1u << n) && !brute_sat; ++a) {
      bool all = true;
      for (const auto& cl : clauses) {
        bool any = false;
        for (Lit l : cl) {
          const bool val = (a >> VarOf(l)) & 1;
          any |= IsNeg(l) ? !val : val;
        }
        if (!any) {
          all = false;
          break;
        }
      }
      brute_sat = all;
    }
    Solver s(config);
    for (int i = 0; i < n; ++i) s.NewVar();
    for (const auto& cl : clauses) s.AddClause({cl[0], cl[1], cl[2]});
    ASSERT_EQ(s.Solve() == SolveResult::Sat, brute_sat)
        << "instance " << instance;
    if (!brute_sat) continue;
    for (const auto& cl : clauses) {
      bool any = false;
      for (Lit l : cl) {
        const bool val = s.IsTrue(VarOf(l));
        any |= IsNeg(l) ? !val : val;
      }
      EXPECT_TRUE(any) << "instance " << instance;
    }
  }
}

TEST(SatComponents, PinnedModelsMatchAcrossConfigurations) {
  // Canonicity at component level: a decode is the lexicographically first
  // model under the static order (the pinned policy, then ascending index
  // with phase false). So whether every variable, half of them or none is
  // pinned, the default config, inprocessing off and aggressive learned-
  // clause reduction must return the same model. The rounds run on the same
  // solvers, so learned clauses carry over between policies.
  SolverConfig no_inprocess;
  no_inprocess.inprocess = false;
  SolverConfig aggressive;
  aggressive.reduce_min_learned = 4;
  aggressive.inprocess_conflict_interval = 16;
  util::SplitMix64 rng(555);
  for (int instance = 0; instance < 15; ++instance) {
    constexpr int n = 12, m = 40;
    std::vector<std::array<Lit, 3>> clauses;
    for (int j = 0; j < m; ++j) {
      std::array<Lit, 3> cl;
      for (int k = 0; k < 3; ++k) {
        const Var v = static_cast<Var>(rng.Below(n));
        cl[k] = rng.Chance(0.5) ? PosLit(v) : NegLit(v);
      }
      clauses.push_back(cl);
    }
    Solver def;
    Solver off(no_inprocess);
    Solver agg(aggressive);
    for (Solver* s : {&def, &off, &agg}) {
      for (int i = 0; i < n; ++i) s->NewVar();
      for (const auto& cl : clauses) s->AddClause({cl[0], cl[1], cl[2]});
    }
    for (const std::size_t pinned : {std::size_t{n}, std::size_t{n / 2},
                                     std::size_t{0}}) {
      std::vector<Var> order(n);
      std::iota(order.begin(), order.end(), 0);
      for (std::size_t i = n; i > 1; --i) std::swap(order[i - 1], order[rng.Below(i)]);
      order.resize(pinned);
      std::vector<std::uint8_t> phases(pinned);
      for (auto& p : phases) p = rng.Chance(0.5) ? 1 : 0;
      for (Solver* s : {&def, &off, &agg}) s->SetDecisionPolicy(order, phases);

      const auto r = def.Solve();
      ASSERT_EQ(r, off.Solve()) << "instance " << instance << " pinned " << pinned;
      ASSERT_EQ(r, agg.Solve()) << "instance " << instance << " pinned " << pinned;
      if (r != SolveResult::Sat) break;
      for (int v = 0; v < n; ++v) {
        const Var x = static_cast<Var>(v);
        EXPECT_EQ(def.IsTrue(x), off.IsTrue(x))
            << "instance " << instance << " pinned " << pinned << " var " << v;
        EXPECT_EQ(def.IsTrue(x), agg.IsTrue(x))
            << "instance " << instance << " pinned " << pinned << " var " << v;
      }
    }
  }
}

}  // namespace
}  // namespace bistdse::sat
