// Independent oracle for every window-signature consumer. The reference
// absorbs the dense responses of a shortcut-free FaultSimulatorT<1>
// (FaultyResponse for a faulty CUT, the good machine otherwise) through
// Misr::AbsorbBit, one bit at a time in (pattern, core output) order — the
// definition of a session's signatures, sharing no code with the
// linear-MISR engines (bist::ErrorSignatureSink and the sparse
// OutputErrors view). StumpsSession, FaultDictionary and SignatureDiagnosis
// must reproduce it exactly over block widths, thread counts, shortcut
// settings, MISR widths, strong and weak windows, a partial last window and
// a deterministic top-up.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "atpg/podem.hpp"
#include "bist/campaign_sources.hpp"
#include "bist/diagnosis.hpp"
#include "bist/fault_dictionary.hpp"
#include "bist/misr.hpp"
#include "bist/stumps.hpp"
#include "netlist/bench_io.hpp"
#include "sim/fault.hpp"
#include "sim/fault_sim.hpp"
#include "test_helpers.hpp"

namespace bistdse {
namespace {

using bist::EncodedPattern;
using bist::FailDatum;
using bist::Misr;
using bist::StumpsConfig;
using sim::BitPattern;
using sim::StuckAtFault;

// Node y is a primary output and feeds the D inputs of flops q0 and q2, so
// one node drives a PO and two PPOs; every flop has D-branch faults.
const char* kOracleBench = R"(
INPUT(a)
INPUT(b)
INPUT(c)
OUTPUT(y)
OUTPUT(z)
q0 = DFF(y)
q1 = DFF(n1)
q2 = DFF(y)
y = NAND(a, q1)
n1 = XOR(b, q0, y)
n2 = NOR(c, q2)
z = AND(n1, n2)
)";

struct Grid {
  std::size_t width;
  std::size_t threads;
};

std::vector<Grid> FullGrid() {
  std::vector<Grid> grid;
  for (const std::size_t width : {1, 4, 16}) {
    for (const std::size_t threads : {1, 4}) grid.push_back({width, threads});
  }
  return grid;
}

constexpr std::uint32_t kMisrWidths[] = {1, 16, 32, 64};

/// One session's reference window signatures, plus which windows contain a
/// pattern whose response differs from the fault-free one (the windows a
/// detection sweep predicts).
struct OracleSession {
  std::vector<std::uint64_t> signatures;
  std::vector<bool> detected;
};

OracleSession Oracle(const netlist::Netlist& nl,
                     std::span<const BitPattern> patterns,
                     const StuckAtFault* fault, std::uint32_t misr_width,
                     std::uint64_t window, bool strong) {
  sim::FaultSimulatorT<1> fsim(nl, /*structural_shortcuts=*/false);
  const std::size_t outputs = nl.CoreOutputs().size();
  Misr misr(misr_width);
  OracleSession session;
  bool detected = false;
  for (std::size_t base = 0; base < patterns.size(); base += 64) {
    const std::size_t n = std::min<std::size_t>(64, patterns.size() - base);
    fsim.SetPatternBlock(
        sim::PackPatternBlock(patterns, base, n, nl.CoreInputs().size()));
    const std::vector<sim::PatternWord> good = fsim.Good().CoreOutputValues();
    const std::vector<sim::PatternWord> response =
        fault ? fsim.FaultyResponse(*fault) : good;
    for (std::size_t k = 0; k < n; ++k) {
      for (std::size_t j = 0; j < outputs; ++j) {
        misr.AbsorbBit((response[j] >> k) & 1);
        detected = detected || (((response[j] ^ good[j]) >> k) & 1);
      }
      const std::size_t applied = base + k + 1;
      if (applied % window == 0 || applied == patterns.size()) {
        session.signatures.push_back(misr.Signature());
        session.detected.push_back(detected);
        detected = false;
        if (strong) misr.Reset();
      }
    }
  }
  return session;
}

/// A CUT with its candidate faults and a session stream: 150 PRPs plus 3
/// reseeded top-up patterns, 153 patterns in windows of 24. The last window
/// is partial, and at W = 1 windows 2 and 5 straddle 64-pattern blocks.
struct Fixture {
  netlist::Netlist nl;
  std::vector<StuckAtFault> faults;
  std::vector<EncodedPattern> det;
  std::vector<BitPattern> patterns;
  static constexpr std::uint64_t kRandom = 150;
  static constexpr std::uint32_t kWindow = 24;

  StumpsConfig Config(std::uint32_t misr_width, bool strong,
                      const Grid& g = {1, 1}) const {
    StumpsConfig config;
    config.signature_window = kWindow;
    config.misr_width = misr_width;
    config.reset_misr_per_window = strong;
    config.sim_block_width = g.width;
    config.sim_threads = g.threads;
    return config;
  }
};

Fixture MakeFixture(netlist::Netlist nl, std::vector<StuckAtFault> faults) {
  Fixture fx{std::move(nl), std::move(faults), {}, {}};
  const std::size_t width = fx.nl.CoreInputs().size();
  bist::ReseedingEncoder encoder(static_cast<std::uint32_t>(width));
  for (std::size_t d = 0; d < 3; ++d) {
    atpg::TestCube cube;
    cube.bits.assign(width, atpg::Value3::X);
    cube.bits[d % width] = d % 2 ? atpg::Value3::Zero : atpg::Value3::One;
    cube.bits[(d + 1) % width] = atpg::Value3::One;
    const auto enc = encoder.Encode(cube);
    EXPECT_TRUE(enc.has_value());
    if (enc) fx.det.push_back(*enc);
  }
  bist::SessionStreamSource stream(fx.Config(32, true), width, encoder,
                                   Fixture::kRandom, fx.det);
  stream.Fill(static_cast<std::size_t>(stream.TotalPatterns()), fx.patterns);
  return fx;
}

/// The hand-written sequential CUT with every stuck-at fault, flop
/// D-branches included.
Fixture BenchFixture() {
  auto nl = netlist::ParseBenchString(kOracleBench);
  auto faults = sim::AllFaults(nl);
  return MakeFixture(std::move(nl), std::move(faults));
}

/// A random CUT: every 7th collapsed fault plus every flop D-branch fault.
Fixture RandomFixture() {
  auto nl = testing::MakeSmallRandom(31, 120);
  std::vector<StuckAtFault> faults;
  const auto all = sim::CollapsedFaults(nl);
  for (std::size_t i = 0; i < all.size(); ++i) {
    const bool d_branch = nl.TypeOf(all[i].node) == netlist::GateType::Dff &&
                          !all[i].IsStem();
    if (i % 7 == 0 || d_branch) faults.push_back(all[i]);
  }
  return MakeFixture(std::move(nl), std::move(faults));
}

/// Fixture 0 is the sequential bench CUT, fixture 1 the random CUT.
Fixture FixtureNumber(int which) {
  return which == 0 ? BenchFixture() : RandomFixture();
}

/// Reference signatures of the golden run and every fixture fault.
struct OracleSet {
  OracleSession golden;
  std::vector<OracleSession> faulty;
};

OracleSet OracleFor(const Fixture& fx, std::span<const BitPattern> patterns,
                    std::uint32_t misr_width, bool strong) {
  OracleSet set;
  set.golden = Oracle(fx.nl, patterns, nullptr, misr_width, Fixture::kWindow,
                      strong);
  for (const StuckAtFault& f : fx.faults) {
    set.faulty.push_back(
        Oracle(fx.nl, patterns, &f, misr_width, Fixture::kWindow, strong));
  }
  return set;
}

TEST(SignatureOracle, MisrIsLinearForEveryWidth) {
  std::mt19937_64 rng(5);
  const std::size_t n = 200;
  for (std::uint32_t width = 1; width <= 64; ++width) {
    std::vector<std::uint8_t> a(n), b(n);
    for (std::size_t p = 0; p < n; ++p) {
      a[p] = rng() & 1;
      b[p] = rng() & 1;
    }
    const auto sig = [&](const std::vector<std::uint8_t>& bits) {
      Misr m(width);
      for (std::uint8_t bit : bits) m.AbsorbBit(bit);
      return m.Signature();
    };
    std::vector<std::uint8_t> sum(n);
    for (std::size_t p = 0; p < n; ++p) sum[p] = a[p] ^ b[p];
    EXPECT_EQ(sig(a) ^ sig(b), sig(sum)) << "width " << width;

    // sig(a) = XOR of x^(n-1-p) over the set bits p of a.
    const auto powers = bist::MisrPowers(width, n + width);
    std::uint64_t from_powers = 0;
    for (std::size_t p = 0; p < n; ++p) {
      if (a[p]) from_powers ^= powers[n - 1 - p];
    }
    EXPECT_EQ(from_powers, sig(a)) << "width " << width;

    // Continuing from a state over b multiplies the state by x^|b|.
    Misr chained(width);
    for (std::uint8_t bit : a) chained.AbsorbBit(bit);
    for (std::uint8_t bit : b) chained.AbsorbBit(bit);
    EXPECT_EQ(chained.Signature(),
              bist::MisrShift(powers, sig(a), n) ^ sig(b))
        << "width " << width;
  }
}

TEST(SignatureOracle, MisrRejectsWidthsOutsideOneTo64) {
  for (const std::uint32_t width : {0u, 65u, 1000u}) {
    try {
      Misr m(width);
      ADD_FAILURE() << "width " << width << " accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("misr_width"), std::string::npos)
          << e.what();
    }
  }
}

void ExpectSessionsMatchOracle(const Fixture& fx) {
  ASSERT_NE(fx.patterns.size() % Fixture::kWindow, 0u);  // partial window
  for (const bool strong : {true, false}) {
    for (const std::uint32_t misr_width : kMisrWidths) {
      const OracleSet oracle = OracleFor(fx, fx.patterns, misr_width, strong);
      for (const Grid& g : FullGrid()) {
        const std::string where =
            "strong=" + std::to_string(strong) + " misr=" +
            std::to_string(misr_width) + " W=" + std::to_string(g.width) +
            " threads=" + std::to_string(g.threads);
        bist::StumpsSession session(fx.nl, fx.Config(misr_width, strong, g));
        const auto golden = session.Run(Fixture::kRandom, fx.det, std::nullopt);
        ASSERT_EQ(golden.window_signatures, oracle.golden.signatures) << where;

        const auto batch = session.RunBatch(Fixture::kRandom, fx.det, fx.faults);
        ASSERT_EQ(batch.size(), fx.faults.size());
        for (std::size_t f = 0; f < fx.faults.size(); ++f) {
          const auto& expected = oracle.faulty[f].signatures;
          ASSERT_EQ(batch[f].window_signatures, expected)
              << where << " fault " << f;
          std::vector<FailDatum> fails;
          for (std::uint32_t w = 0; w < expected.size(); ++w) {
            if (expected[w] != oracle.golden.signatures[w]) {
              fails.push_back({w, expected[w], oracle.golden.signatures[w]});
            }
          }
          ASSERT_EQ(batch[f].fail_data.size(), fails.size()) << where;
          for (std::size_t i = 0; i < fails.size(); ++i) {
            EXPECT_EQ(batch[f].fail_data[i].window_index,
                      fails[i].window_index);
            EXPECT_EQ(batch[f].fail_data[i].observed_signature,
                      fails[i].observed_signature);
            EXPECT_EQ(batch[f].fail_data[i].expected_signature,
                      fails[i].expected_signature);
          }
          EXPECT_EQ(batch[f].pass, fails.empty());
        }
        // Run of a single fault is a batch of one.
        for (std::size_t f = 0; f < fx.faults.size(); f += 5) {
          EXPECT_EQ(session.Run(Fixture::kRandom, fx.det, fx.faults[f])
                        .window_signatures,
                    oracle.faulty[f].signatures)
              << where << " fault " << f;
        }
      }
    }
  }
}

TEST(SignatureOracle, StumpsMatchesOracleOnSequentialBench) {
  ExpectSessionsMatchOracle(BenchFixture());
}

TEST(SignatureOracle, StumpsMatchesOracleOnRandomCut) {
  ExpectSessionsMatchOracle(RandomFixture());
}

/// Dictionary rows and table sections against the oracle: fault f fails
/// window w iff its signature differs from the golden one, and window w's
/// section lists exactly those faults with their signatures, sorted.
void ExpectDictionaryMatchesOracle(const bist::FaultDictionary& dict,
                                   const OracleSet& oracle,
                                   const std::string& where) {
  const auto& golden = oracle.golden.signatures;
  ASSERT_EQ(dict.WindowCount(), golden.size()) << where;
  for (std::uint32_t w = 0; w < golden.size(); ++w) {
    std::vector<std::pair<std::uint64_t, std::uint32_t>> expected;
    for (std::uint32_t f = 0; f < oracle.faulty.size(); ++f) {
      const std::uint64_t sig = oracle.faulty[f].signatures[w];
      const bool fails = sig != golden[w];
      EXPECT_EQ((dict.WindowsOf(f)[w / 64] >> (w % 64)) & 1, fails ? 1u : 0u)
          << where << " fault " << f << " window " << w;
      if (fails) expected.emplace_back(sig, f);
    }
    std::sort(expected.begin(), expected.end());
    const auto entries = dict.WindowEntries(w);
    ASSERT_EQ(entries.signatures.size(), expected.size()) << where;
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(entries.signatures[i], expected[i].first) << where;
      EXPECT_EQ(entries.faults[i], expected[i].second) << where;
    }
  }
}

TEST(SignatureOracle, DictionaryMatchesOracleAfterBuildAndExtend) {
  for (int which = 0; which < 2; ++which) {
    const Fixture fx = FixtureNumber(which);
    for (const std::uint32_t misr_width : kMisrWidths) {
      const OracleSet oracle =
          OracleFor(fx, fx.patterns, misr_width, /*strong=*/true);
      const StumpsConfig config = fx.Config(misr_width, true);
      const std::span<const EncodedPattern> det = fx.det;
      for (const Grid& g : FullGrid()) {
        const std::string where = "misr=" + std::to_string(misr_width) +
                                  " W=" + std::to_string(g.width) +
                                  " threads=" + std::to_string(g.threads);
        const bist::FaultDictionary built(fx.nl, config, Fixture::kRandom, det,
                                          fx.faults, g.threads, g.width);
        ExpectDictionaryMatchesOracle(built, oracle, where + " build");

        // From a window boundary: 144 random patterns = 6 full windows.
        bist::FaultDictionary boundary(fx.nl, config, 144, {}, fx.faults,
                                       g.threads, g.width);
        boundary.Extend(fx.nl, config, Fixture::kRandom, det, g.threads,
                        g.width);
        ExpectDictionaryMatchesOracle(boundary, oracle, where + " boundary");

        // From mid-window: 150 random + 1 top-up pattern ends inside
        // window 6.
        bist::FaultDictionary partial(fx.nl, config, Fixture::kRandom,
                                      det.first(1), fx.faults, g.threads,
                                      g.width);
        partial.Extend(fx.nl, config, Fixture::kRandom, det, g.threads,
                       g.width);
        ExpectDictionaryMatchesOracle(partial, oracle, where + " partial");
      }
    }
  }
}

/// SignatureDiagnosis's ranking recomputed from oracle data: stage 1 scores
/// the Jaccard index of the oracle-detected windows against the distinct
/// observed windows; stage 2 adds the fraction of the first 8 fail data
/// whose window signature the candidate reproduces (0 for a window with no
/// patterns) to a tie-extended shortlist.
std::vector<bist::DiagnosisCandidate> ReferenceDiagnose(
    std::span<const StuckAtFault> candidates, const OracleSet& oracle,
    std::span<const FailDatum> fail_data, std::size_t top_k) {
  const std::set<std::uint32_t> observed = [&] {
    std::set<std::uint32_t> s;
    for (const FailDatum& f : fail_data) s.insert(f.window_index);
    return s;
  }();
  std::vector<bist::DiagnosisCandidate> ranked;
  for (std::size_t c = 0; c < candidates.size(); ++c) {
    const auto& detected = oracle.faulty[c].detected;
    std::uint64_t predicted = 0, inter = 0;
    for (std::uint32_t w = 0; w < detected.size(); ++w) {
      predicted += detected[w];
      inter += detected[w] && observed.count(w);
    }
    const std::uint64_t uni = observed.size() + predicted - inter;
    ranked.push_back({candidates[c],
                      uni == 0 ? 0.0
                               : static_cast<double>(inter) /
                                     static_cast<double>(uni)});
  }
  const auto by_score = [](const bist::DiagnosisCandidate& a,
                           const bist::DiagnosisCandidate& b) {
    return a.score > b.score;
  };
  std::stable_sort(ranked.begin(), ranked.end(), by_score);
  if (!fail_data.empty()) {
    std::size_t shortlist =
        std::min(ranked.size(), std::max<std::size_t>(top_k * 8, 32));
    while (shortlist < ranked.size() &&
           ranked[shortlist].score == ranked[shortlist - 1].score) {
      ++shortlist;
    }
    const std::size_t selected = std::min<std::size_t>(fail_data.size(), 8);
    for (std::size_t r = 0; r < shortlist; ++r) {
      const std::size_t c = static_cast<std::size_t>(
          std::find(candidates.begin(), candidates.end(), ranked[r].fault) -
          candidates.begin());
      const auto& sigs = oracle.faulty[c].signatures;
      std::size_t matches = 0;
      for (std::size_t i = 0; i < selected; ++i) {
        const std::uint32_t w = fail_data[i].window_index;
        const std::uint64_t sig = w < sigs.size() ? sigs[w] : 0;
        matches += sig == fail_data[i].observed_signature;
      }
      ranked[r].score +=
          static_cast<double>(matches) / static_cast<double>(selected);
    }
    std::stable_sort(ranked.begin(),
                     ranked.begin() + static_cast<std::ptrdiff_t>(shortlist),
                     by_score);
  }
  if (ranked.size() > top_k) ranked.resize(top_k);
  return ranked;
}

TEST(SignatureOracle, SignatureDiagnosisMatchesOracle) {
  for (int which = 0; which < 2; ++which) {
    const Fixture fx = FixtureNumber(which);
    // The fixture's faults are unique candidates (the reference maps a
    // ranked fault back to its oracle by value).
    for (std::size_t i = 0; i < fx.faults.size(); ++i) {
      for (std::size_t j = i + 1; j < fx.faults.size(); ++j) {
        ASSERT_FALSE(fx.faults[i] == fx.faults[j]);
      }
    }
    for (const std::uint32_t misr_width : kMisrWidths) {
      const OracleSet oracle =
          OracleFor(fx, fx.patterns, misr_width, /*strong=*/true);
      const auto& golden = oracle.golden.signatures;
      // Observed fail data of a few injected faults, one with hostile
      // window indices appended: past the session and past the bitmask
      // rows, the latter twice.
      std::vector<std::vector<FailDatum>> queries;
      for (std::size_t f = 1; f < fx.faults.size() && queries.size() < 4;
           f += fx.faults.size() / 5 + 1) {
        std::vector<FailDatum> fails;
        for (std::uint32_t w = 0; w < golden.size(); ++w) {
          const std::uint64_t sig = oracle.faulty[f].signatures[w];
          if (sig != golden[w]) fails.push_back({w, sig, golden[w]});
        }
        if (!fails.empty()) queries.push_back(std::move(fails));
      }
      ASSERT_FALSE(queries.empty());
      std::vector<FailDatum> hostile = queries.front();
      hostile.insert(hostile.begin(), {{100000, 0, 0}, {63, 7, 0},
                                       {100000, 5, 0}});
      queries.push_back(std::move(hostile));

      for (const Grid& g : FullGrid()) {
        const bist::SignatureDiagnosis diagnosis(
            fx.nl, fx.Config(misr_width, true), Fixture::kRandom, fx.det,
            g.width, g.threads);
        for (const auto& fails : queries) {
          for (const std::size_t top_k : {std::size_t{3}, fx.faults.size()}) {
            const auto ranked = diagnosis.Diagnose(fails, fx.faults, top_k);
            const auto expected =
                ReferenceDiagnose(fx.faults, oracle, fails, top_k);
            ASSERT_EQ(ranked.size(), expected.size());
            for (std::size_t r = 0; r < ranked.size(); ++r) {
              EXPECT_EQ(ranked[r].fault, expected[r].fault)
                  << "misr=" << misr_width << " W=" << g.width
                  << " threads=" << g.threads << " rank " << r;
              EXPECT_EQ(ranked[r].score, expected[r].score);
            }
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace bistdse
