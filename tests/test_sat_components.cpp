// Component-level tests for the layered SAT core: binary-implication
// propagation, insertion-order invariance under pinned policies, formula
// shapes with equivalent literals, failed literals and subsumable clauses,
// and learning soundness on pigeonhole and brute-force sweeps. Decode
// canonicity against a specification oracle is tools/sat_fuzz's job.
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
  // to the identical model under a full pinned policy: the pinned-order
  // model is canonical, whatever order the adjacency lists hold.
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
  // a -> b -> c -> a is one strongly connected component: a, b and c are
  // equivalent, so every model gives them one value.
  Solver s;
  const Var a = s.NewVar(), b = s.NewVar(), c = s.NewVar(), d = s.NewVar();
  s.AddClause({NegLit(a), PosLit(b)});
  s.AddClause({NegLit(b), PosLit(c)});
  s.AddClause({NegLit(c), PosLit(a)});
  s.AddClause({PosLit(a), PosLit(d)});  // keeps the instance non-trivial
  ASSERT_EQ(s.Solve(), SolveResult::Sat);
  EXPECT_EQ(s.IsTrue(a), s.IsTrue(b));
  EXPECT_EQ(s.IsTrue(b), s.IsTrue(c));

  // The class must behave as one variable for later constraints too:
  // forcing b forces a and c.
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
  // x implies both a and ~a, so x is a failed literal: ~x holds in every
  // model.
  Solver s;
  const Var x = s.NewVar(), a = s.NewVar(), other = s.NewVar();
  s.AddClause({NegLit(x), PosLit(a)});
  s.AddClause({NegLit(x), NegLit(a)});
  s.AddClause({PosLit(x), PosLit(other)});
  // Pin x=true first: the searcher conflicts on the decision and learns ~x.
  const std::vector<Var> order = {x, a, other};
  const std::vector<std::uint8_t> phases = {1, 1, 1};
  s.SetDecisionPolicy(order, phases);
  ASSERT_EQ(s.Solve(), SolveResult::Sat);
  EXPECT_FALSE(s.IsTrue(x));
  EXPECT_TRUE(s.IsTrue(other));
  EXPECT_GE(s.Stats().conflicts, 1u);
}

TEST(SatComponents, SubsumptionRemovesAndStrengthensClauses) {
  Solver s;
  std::vector<Var> v;
  for (int i = 0; i < 8; ++i) v.push_back(s.NewVar());
  // (v0 v1 v2) subsumes (v0 v1 v2 v3).
  s.AddClause({PosLit(v[0]), PosLit(v[1]), PosLit(v[2])});
  s.AddClause({PosLit(v[0]), PosLit(v[1]), PosLit(v[2]), PosLit(v[3])});
  // (v4 v5 v6 v7) and (~v4 v5 v6 v7) resolve to (v5 v6 v7).
  s.AddClause({PosLit(v[4]), PosLit(v[5]), PosLit(v[6]), PosLit(v[7])});
  s.AddClause({NegLit(v[4]), PosLit(v[5]), PosLit(v[6]), PosLit(v[7])});
  ASSERT_EQ(s.Solve(), SolveResult::Sat);
  // Later constraints must see the resolvent enforced.
  s.AddClause({NegLit(v[5])});
  s.AddClause({NegLit(v[6])});
  ASSERT_EQ(s.Solve(), SolveResult::Sat);
  EXPECT_TRUE(s.IsTrue(v[7]));
}

TEST(SatComponents, LbdReductionStaysSound) {
  // Pigeonhole 7/6 takes hundreds of conflicts; with every learned clause
  // kept, the searcher must still prove unsatisfiability.
  Solver s;
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
  EXPECT_GT(s.Stats().learned_clauses, 0u);
}

TEST(SatComponents, AggressiveReductionAgreesWithBruteForce) {
  // Random 3-SAT near the threshold: verdicts match exhaustive search, and
  // every model satisfies every clause.
  util::SplitMix64 rng(404);
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
    Solver s;
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

}  // namespace
}  // namespace bistdse::sat
