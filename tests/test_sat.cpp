#include <gtest/gtest.h>

#include <bitset>
#include <limits>
#include <memory>
#include <stdexcept>

#include "sat/solver.hpp"
#include "util/rng.hpp"

namespace bistdse::sat {
namespace {

/// A solver over a formula of `n` variables of which exactly one is true:
/// the one-hot constraint the DSE encodings add with
/// Formula::AddExactlyOne.
std::unique_ptr<Solver> ExactlyOneOf(std::size_t n) {
  auto formula = std::make_shared<Formula>();
  std::vector<Lit> lits;
  for (std::size_t i = 0; i < n; ++i) lits.push_back(PosLit(formula->NewVar()));
  formula->AddExactlyOne(lits);
  formula->Index();
  return std::make_unique<Solver>(std::move(formula));
}

TEST(SatSolver, TrivialSatAndModel) {
  Solver s;
  const Var a = s.NewVar(), b = s.NewVar();
  s.AddClause({PosLit(a)});
  s.AddClause({NegLit(a), PosLit(b)});
  ASSERT_EQ(s.Solve(), SolveResult::Sat);
  EXPECT_TRUE(s.IsTrue(a));
  EXPECT_TRUE(s.IsTrue(b));
}

TEST(SatSolver, TrivialUnsat) {
  Solver s;
  const Var a = s.NewVar();
  s.AddClause({PosLit(a)});
  s.AddClause({NegLit(a)});
  EXPECT_EQ(s.Solve(), SolveResult::Unsat);
}

TEST(SatSolver, EmptyClauseIsUnsat) {
  Solver s;
  s.NewVar();
  s.AddClause({});
  EXPECT_EQ(s.Solve(), SolveResult::Unsat);
}

TEST(SatSolver, TautologyIgnored) {
  Solver s;
  const Var a = s.NewVar();
  s.AddClause({PosLit(a), NegLit(a)});
  EXPECT_EQ(s.Solve(), SolveResult::Sat);
}

TEST(SatSolver, PigeonholeUnsat) {
  // 4 pigeons, 3 holes: requires real conflict-driven search.
  Solver s;
  constexpr int P = 4, H = 3;
  Var x[P][H];
  for (int p = 0; p < P; ++p)
    for (int h = 0; h < H; ++h) x[p][h] = s.NewVar();
  for (int p = 0; p < P; ++p) {
    std::vector<Lit> lits;
    for (int h = 0; h < H; ++h) lits.push_back(PosLit(x[p][h]));
    s.AddClause(lits);
  }
  for (int h = 0; h < H; ++h) {
    for (int p1 = 0; p1 < P; ++p1)
      for (int p2 = p1 + 1; p2 < P; ++p2)
        s.AddClause({NegLit(x[p1][h]), NegLit(x[p2][h])});
  }
  EXPECT_EQ(s.Solve(), SolveResult::Unsat);
}

TEST(SatSolver, PbAtLeast) {
  Solver s;
  std::vector<Var> v;
  for (int i = 0; i < 5; ++i) v.push_back(s.NewVar());
  std::vector<std::pair<std::int64_t, Lit>> terms;
  for (Var x : v) terms.emplace_back(1, PosLit(x));
  s.AddPbGe(terms, 3);
  ASSERT_EQ(s.Solve(), SolveResult::Sat);
  int count = 0;
  for (Var x : v) count += s.IsTrue(x);
  EXPECT_GE(count, 3);
}

TEST(SatSolver, PbAtMost) {
  Solver s;
  std::vector<Var> v;
  std::vector<std::pair<std::int64_t, Lit>> terms;
  std::vector<Lit> all;
  for (int i = 0; i < 5; ++i) {
    v.push_back(s.NewVar());
    terms.emplace_back(1, PosLit(v.back()));
    all.push_back(PosLit(v.back()));
  }
  s.AddPbLe(terms, 2);
  s.AddClause(all);  // at least one
  // Force three specific ones true -> unsat.
  Solver s2;
  std::vector<std::pair<std::int64_t, Lit>> terms2;
  for (int i = 0; i < 5; ++i) {
    const Var x = s2.NewVar();
    terms2.emplace_back(1, PosLit(x));
    if (i < 3) s2.AddClause({PosLit(x)});
  }
  s2.AddPbLe(terms2, 2);
  EXPECT_EQ(s.Solve(), SolveResult::Sat);
  EXPECT_EQ(s2.Solve(), SolveResult::Unsat);
}

TEST(SatSolver, PbWeighted) {
  // 3a + 2b + c >= 3 with a=false forces b and c (2 + 1 is exactly 3).
  Solver s;
  const Var a = s.NewVar(), b = s.NewVar(), c = s.NewVar();
  s.AddPbGe({{3, PosLit(a)}, {2, PosLit(b)}, {1, PosLit(c)}}, 3);
  s.AddClause({NegLit(a)});
  ASSERT_EQ(s.Solve(), SolveResult::Sat);
  EXPECT_FALSE(s.IsTrue(a));
  EXPECT_TRUE(s.IsTrue(b));
  EXPECT_TRUE(s.IsTrue(c));
}

TEST(SatSolver, PbInfeasibleBound) {
  Solver s;
  const Var a = s.NewVar(), b = s.NewVar();
  s.AddPbGe({{1, PosLit(a)}, {1, PosLit(b)}}, 3);
  EXPECT_EQ(s.Solve(), SolveResult::Unsat);
}

TEST(SatSolver, PbRejectsNonPositiveCoefficients) {
  Solver s;
  const Var a = s.NewVar(), b = s.NewVar();
  EXPECT_THROW(s.AddPbGe({{0, PosLit(a)}, {1, PosLit(b)}}, 1),
               std::invalid_argument);
  EXPECT_THROW(s.AddPbGe({{-3, PosLit(a)}}, 1), std::invalid_argument);
  EXPECT_THROW(s.AddPbLe({{1, PosLit(a)}, {-1, PosLit(b)}}, 1),
               std::invalid_argument);
  // The rejected constraints must not have corrupted the instance.
  EXPECT_EQ(s.Solve(), SolveResult::Sat);
}

TEST(SatSolver, PbEmptyTermList) {
  // "0 >= bound" is trivially true for bound <= 0 and contradictory above.
  Solver ok;
  ok.NewVar();
  ok.AddPbGe({}, 0);
  ok.AddPbGe({}, -5);
  ok.AddPbLe({}, 0);
  ok.AddPbLe({}, 7);
  EXPECT_EQ(ok.Solve(), SolveResult::Sat);

  Solver bad_ge;
  bad_ge.NewVar();
  bad_ge.AddPbGe({}, 1);
  EXPECT_EQ(bad_ge.Solve(), SolveResult::Unsat);

  Solver bad_le;
  bad_le.NewVar();
  bad_le.AddPbLe({}, -1);  // 0 <= -1
  EXPECT_EQ(bad_le.Solve(), SolveResult::Unsat);
}

TEST(SatSolver, PbTriviallyTrueBoundConstrainsNothing) {
  Solver s;
  const Var a = s.NewVar(), b = s.NewVar();
  s.AddPbGe({{2, PosLit(a)}, {3, PosLit(b)}}, 0);   // always holds
  s.AddPbGe({{2, PosLit(a)}, {3, PosLit(b)}}, -4);  // always holds
  s.AddPbLe({{2, PosLit(a)}, {3, PosLit(b)}}, 5);   // = coefficient sum
  s.AddClause({NegLit(a)});
  s.AddClause({NegLit(b)});
  ASSERT_EQ(s.Solve(), SolveResult::Sat);
  EXPECT_FALSE(s.IsTrue(a));
  EXPECT_FALSE(s.IsTrue(b));
}

TEST(SatSolver, PbTriviallyFalseBoundIsUnsat) {
  Solver ge;
  const Var a = ge.NewVar(), b = ge.NewVar();
  ge.AddPbGe({{2, PosLit(a)}, {3, PosLit(b)}}, 6);  // sum of coefs is 5
  EXPECT_EQ(ge.Solve(), SolveResult::Unsat);

  Solver le;
  const Var c = le.NewVar();
  le.NewVar();
  le.AddPbLe({{4, PosLit(c)}}, -1);  // even all-false reaches only 0
  EXPECT_EQ(le.Solve(), SolveResult::Unsat);
}

TEST(SatSolver, PbCoefficientSumOverflowThrows) {
  constexpr std::int64_t kHuge = std::numeric_limits<std::int64_t>::max() / 2;
  Solver s;
  const Var a = s.NewVar(), b = s.NewVar(), c = s.NewVar();
  EXPECT_THROW(
      s.AddPbGe({{kHuge, PosLit(a)}, {kHuge, PosLit(b)}, {kHuge, PosLit(c)}},
                1),
      std::overflow_error);
  EXPECT_THROW(
      s.AddPbLe({{kHuge, PosLit(a)}, {kHuge, PosLit(b)}, {kHuge, PosLit(c)}},
                kHuge),
      std::overflow_error);
  // Le normalization computes total - bound; a representable total with a
  // far-negative bound overflows there.
  EXPECT_THROW(
      s.AddPbLe({{kHuge, PosLit(a)}},
                std::numeric_limits<std::int64_t>::min() + 2),
      std::overflow_error);
  EXPECT_EQ(s.Solve(), SolveResult::Sat);
}

TEST(SatSolver, ExactlyOne) {
  const auto s = ExactlyOneOf(8);
  ASSERT_EQ(s->Solve(), SolveResult::Sat);
  int count = 0;
  for (Var v = 0; v < 8; ++v) count += s->IsTrue(v);
  EXPECT_EQ(count, 1);
}

TEST(SatSolver, DecisionPolicyFollowsPhases) {
  // With no conflicting constraints the solver must reproduce the preferred
  // phases exactly — the core contract of SAT-decoding.
  Solver s;
  std::vector<Var> vars;
  for (int i = 0; i < 16; ++i) vars.push_back(s.NewVar());
  // Benign constraints: at least one of each adjacent pair.
  for (int i = 0; i + 1 < 16; ++i)
    s.AddClause({PosLit(vars[i]), PosLit(vars[i + 1])});
  std::vector<std::uint8_t> phases(16);
  for (int i = 0; i < 16; ++i) phases[i] = i % 2 == 0;
  s.SetDecisionPolicy(vars, phases);
  ASSERT_EQ(s.Solve(), SolveResult::Sat);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(s.IsTrue(vars[i]), phases[i]) << "var " << i;
  }
}

TEST(SatSolver, DecisionPolicyOrderMatters) {
  // x XOR y (exactly one); priority decides which one wins.
  for (int first = 0; first < 2; ++first) {
    const auto s = ExactlyOneOf(2);
    const Var x = 0, y = 1;
    std::vector<Var> order = first == 0 ? std::vector<Var>{x, y}
                                        : std::vector<Var>{y, x};
    std::vector<std::uint8_t> phases = {1, 1};
    s->SetDecisionPolicy(order, phases);
    ASSERT_EQ(s->Solve(), SolveResult::Sat);
    EXPECT_EQ(s->IsTrue(x), first == 0);
    EXPECT_EQ(s->IsTrue(y), first == 1);
  }
}

TEST(SatSolver, ResolveWithDifferentPoliciesReusesInstance) {
  const auto s = ExactlyOneOf(6);
  std::vector<Var> vars = {0, 1, 2, 3, 4, 5};
  for (int pick = 0; pick < 6; ++pick) {
    std::vector<Var> order;
    order.push_back(vars[pick]);
    for (int i = 0; i < 6; ++i)
      if (i != pick) order.push_back(vars[i]);
    std::vector<std::uint8_t> phases(6, 0);
    phases[0] = 1;  // prefer the picked one true
    s->SetDecisionPolicy(order, phases);
    ASSERT_EQ(s->Solve(), SolveResult::Sat);
    EXPECT_TRUE(s->IsTrue(vars[pick])) << pick;
  }
}

// Property: agree with brute force on random 3-SAT near the phase
// transition (n=12, m=50).
TEST(SatSolver, AgreesWithBruteForceOnRandom3Sat) {
  util::SplitMix64 rng(2024);
  for (int instance = 0; instance < 40; ++instance) {
    constexpr int n = 12, m = 50;
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
    for (std::uint32_t assign = 0; assign < (1u << n) && !brute_sat; ++assign) {
      bool all = true;
      for (const auto& cl : clauses) {
        bool any = false;
        for (Lit l : cl) {
          const bool val = (assign >> VarOf(l)) & 1;
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
    const bool solver_sat = s.Solve() == SolveResult::Sat;
    ASSERT_EQ(solver_sat, brute_sat) << "instance " << instance;
    if (solver_sat) {
      // The model must satisfy every clause.
      for (const auto& cl : clauses) {
        bool any = false;
        for (Lit l : cl) {
          const bool val = s.IsTrue(VarOf(l));
          any |= IsNeg(l) ? !val : val;
        }
        EXPECT_TRUE(any);
      }
    }
  }
}

// Property: PB + clause mix against brute force.
TEST(SatSolver, AgreesWithBruteForceOnPbMix) {
  util::SplitMix64 rng(777);
  for (int instance = 0; instance < 25; ++instance) {
    constexpr int n = 10;
    struct Pb {
      std::vector<std::pair<std::int64_t, Lit>> terms;
      std::int64_t bound;
    };
    std::vector<Pb> pbs;
    for (int j = 0; j < 4; ++j) {
      Pb pb;
      std::int64_t total = 0;
      for (int k = 0; k < 5; ++k) {
        const Var v = static_cast<Var>(rng.Below(n));
        const auto coef = static_cast<std::int64_t>(1 + rng.Below(4));
        pb.terms.emplace_back(coef, rng.Chance(0.5) ? PosLit(v) : NegLit(v));
        total += coef;
      }
      pb.bound = static_cast<std::int64_t>(rng.Below(total + 1));
      pbs.push_back(pb);
    }

    auto eval = [&](std::uint32_t assign) {
      for (const auto& pb : pbs) {
        std::int64_t sum = 0;
        for (const auto& [coef, l] : pb.terms) {
          const bool val = (assign >> VarOf(l)) & 1;
          if (IsNeg(l) ? !val : val) sum += coef;
        }
        if (sum < pb.bound) return false;
      }
      return true;
    };
    bool brute_sat = false;
    for (std::uint32_t a = 0; a < (1u << n) && !brute_sat; ++a)
      brute_sat = eval(a);

    Solver s;
    for (int i = 0; i < n; ++i) s.NewVar();
    for (const auto& pb : pbs) s.AddPbGe(pb.terms, pb.bound);
    const bool solver_sat = s.Solve() == SolveResult::Sat;
    ASSERT_EQ(solver_sat, brute_sat) << "instance " << instance;
    if (solver_sat) {
      std::uint32_t a = 0;
      for (int i = 0; i < n; ++i)
        if (s.IsTrue(static_cast<Var>(i))) a |= 1u << i;
      EXPECT_TRUE(eval(a)) << "instance " << instance;
    }
  }
}

TEST(SatSolver, StatsAccumulate) {
  Solver s;
  const Var a = s.NewVar(), b = s.NewVar();
  s.AddClause({PosLit(a), PosLit(b)});
  s.AddClause({NegLit(a), PosLit(b)});
  s.AddClause({PosLit(a), NegLit(b)});
  ASSERT_EQ(s.Solve(), SolveResult::Sat);
  EXPECT_GT(s.Stats().decisions + s.Stats().propagations, 0u);
}

}  // namespace
}  // namespace bistdse::sat
