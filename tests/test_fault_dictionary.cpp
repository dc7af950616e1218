#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <random>
#include <set>
#include <string>

#include "bist/fault_dictionary.hpp"
#include "test_helpers.hpp"

namespace bistdse::bist {
namespace {

/// Payload equality: every fault's window bitmask row, every window's
/// signature-table section, plus the session identity — the full
/// observable state.
void ExpectBitIdentical(const FaultDictionary& a, const FaultDictionary& b) {
  ASSERT_EQ(a.FaultCount(), b.FaultCount());
  ASSERT_EQ(a.WindowCount(), b.WindowCount());
  ASSERT_EQ(a.TotalPatterns(), b.TotalPatterns());
  ASSERT_EQ(a.NetlistHash(), b.NetlistHash());
  ASSERT_EQ(a.ConfigHash(), b.ConfigHash());
  for (std::size_t f = 0; f < a.FaultCount(); ++f) {
    ASSERT_EQ(a.Faults()[f], b.Faults()[f]) << "fault " << f;
    const auto wa = a.WindowsOf(f), wb = b.WindowsOf(f);
    ASSERT_EQ(wa.size(), wb.size());
    for (std::size_t w = 0; w < wa.size(); ++w) {
      ASSERT_EQ(wa[w], wb[w]) << "fault " << f << " word " << w;
    }
  }
  for (std::uint32_t w = 0; w < a.WindowCount(); ++w) {
    const auto ea = a.WindowEntries(w), eb = b.WindowEntries(w);
    ASSERT_EQ(ea.signatures.size(), eb.signatures.size()) << "window " << w;
    ASSERT_EQ(ea.faults.size(), ea.signatures.size()) << "window " << w;
    for (std::size_t e = 0; e < ea.signatures.size(); ++e) {
      ASSERT_EQ(ea.signatures[e], eb.signatures[e])
          << "window " << w << " entry " << e;
      ASSERT_EQ(ea.faults[e], eb.faults[e])
          << "window " << w << " entry " << e;
    }
  }
}

void ExpectRankingEq(const std::vector<DiagnosisCandidate>& got,
                     const std::vector<DiagnosisCandidate>& want,
                     const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].fault, want[i].fault) << where << " rank " << i;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got[i].score),
              std::bit_cast<std::uint64_t>(want[i].score))
        << where << " rank " << i;
  }
}

/// Fault-major reference rows taken from the session engine, not from any
/// dictionary: per fault, its failing-window bitmask row and its faulty
/// signatures in window order.
struct ReferenceRows {
  std::size_t words = 0;
  std::vector<sim::StuckAtFault> faults;
  std::vector<std::vector<std::uint64_t>> rows;
  std::vector<std::vector<FailDatum>> fail_data;  ///< Sorted by window.
};

/// The O(faults x fail data) scorer the window-major signature table
/// replaced, kept as the bit-exact oracle: Jaccard over the bitmask rows,
/// plus, per fail datum, a popcount-rank lookup into the fault's sparse
/// signature list. Windows past the rows count toward the union (distinct
/// indices once) and |fail_data| only.
std::vector<DiagnosisCandidate> ReferenceDiagnose(
    const ReferenceRows& ref, std::span<const FailDatum> fail_data,
    std::size_t top_k) {
  if (fail_data.empty() || top_k == 0) return {};
  const std::uint64_t row_bits = std::uint64_t{64} * ref.words;
  std::vector<std::uint64_t> observed(ref.words, 0);
  std::set<std::uint32_t> unpredicted;
  for (const FailDatum& fd : fail_data) {
    if (fd.window_index < row_bits) {
      observed[fd.window_index / 64] |= std::uint64_t{1}
                                        << (fd.window_index % 64);
    } else {
      unpredicted.insert(fd.window_index);
    }
  }
  std::vector<DiagnosisCandidate> ranked;
  for (std::size_t f = 0; f < ref.faults.size(); ++f) {
    const std::vector<std::uint64_t>& fw = ref.rows[f];
    std::uint64_t inter = 0, uni = unpredicted.size();
    for (std::size_t w = 0; w < ref.words; ++w) {
      inter += std::popcount(fw[w] & observed[w]);
      uni += std::popcount(fw[w] | observed[w]);
    }
    double score = static_cast<double>(inter) / static_cast<double>(uni);
    std::size_t matches = 0;
    for (const FailDatum& fd : fail_data) {
      const std::uint32_t w = fd.window_index;
      if (w >= row_bits || !((fw[w / 64] >> (w % 64)) & 1)) continue;
      std::size_t rank = 0;
      for (std::size_t ww = 0; ww < w / 64; ++ww) rank += std::popcount(fw[ww]);
      rank += std::popcount(fw[w / 64] & ((std::uint64_t{1} << (w % 64)) - 1));
      if (ref.fail_data[f][rank].observed_signature == fd.observed_signature) {
        ++matches;
      }
    }
    score +=
        static_cast<double>(matches) / static_cast<double>(fail_data.size());
    ranked.push_back({ref.faults[f], score});
  }
  std::stable_sort(ranked.begin(), ranked.end(),
                   [](const DiagnosisCandidate& a, const DiagnosisCandidate& b) {
                     return a.score > b.score;
                   });
  if (ranked.size() > top_k) ranked.resize(top_k);
  return ranked;
}

StumpsConfig DictConfig() {
  StumpsConfig config;
  config.signature_window = 16;
  config.prpg_seed = 0x51;
  return config;
}

class FaultDictionaryTest : public ::testing::Test {
 protected:
  FaultDictionaryTest()
      : netlist_(bistdse::testing::MakeSmallRandom(71, 220)),
        faults_(sim::CollapsedFaults(netlist_)),
        dictionary_(netlist_, DictConfig(), kPatterns, {}, faults_) {}

  static constexpr std::uint64_t kPatterns = 256;
  netlist::Netlist netlist_;
  std::vector<sim::StuckAtFault> faults_;
  FaultDictionary dictionary_;
};

TEST_F(FaultDictionaryTest, AgreesWithSessionFailData) {
  // For sampled injected faults, the dictionary's stored failing windows
  // must equal the windows the session engine actually reports as failing.
  StumpsSession session(netlist_, DictConfig());
  for (std::size_t fi = 0; fi < faults_.size(); fi += 211) {
    const auto result = session.Run(kPatterns, {}, faults_[fi]);
    const auto stored = dictionary_.WindowsOf(fi);
    std::vector<std::uint64_t> observed(stored.size(), 0);
    for (const auto& fd : result.fail_data) {
      observed[fd.window_index / 64] |= std::uint64_t{1} << (fd.window_index % 64);
    }
    for (std::size_t wword = 0; wword < stored.size(); ++wword) {
      EXPECT_EQ(stored[wword], observed[wword]) << "fault " << fi;
    }
  }
}

TEST_F(FaultDictionaryTest, DiagnosesInjectedFaults) {
  StumpsSession session(netlist_, DictConfig());
  std::size_t attempted = 0, hits = 0;
  for (std::size_t fi = 0; fi < faults_.size(); fi += 101) {
    const auto result = session.Run(kPatterns, {}, faults_[fi]);
    if (result.fail_data.empty()) continue;
    ++attempted;
    const auto ranked = dictionary_.Diagnose(result.fail_data, 5);
    for (const auto& c : ranked) hits += c.fault == faults_[fi] ? 1 : 0;
  }
  ASSERT_GT(attempted, 3u);
  EXPECT_GE(hits * 10, attempted * 8) << hits << "/" << attempted;
}

TEST_F(FaultDictionaryTest, WindowCountMatchesSession) {
  EXPECT_EQ(dictionary_.WindowCount(), kPatterns / 16);
  EXPECT_EQ(dictionary_.FaultCount(), faults_.size());
}

TEST_F(FaultDictionaryTest, DiagnoseEdgeCases) {
  StumpsSession session(netlist_, DictConfig());
  std::vector<FailDatum> fail_data;
  for (std::size_t fi = 0; fi < faults_.size() && fail_data.empty(); ++fi) {
    fail_data = session.Run(kPatterns, {}, faults_[fi]).fail_data;
  }
  ASSERT_FALSE(fail_data.empty());

  EXPECT_TRUE(dictionary_.Diagnose({}, 5).empty());
  EXPECT_TRUE(dictionary_.Diagnose(fail_data, 0).empty());
  // top_k past the candidate count returns every candidate, ranked.
  const auto all = dictionary_.Diagnose(fail_data, faults_.size() + 100);
  EXPECT_EQ(all.size(), faults_.size());
  for (std::size_t i = 1; i < all.size(); ++i) {
    EXPECT_GE(all[i - 1].score, all[i].score);
  }
}

TEST_F(FaultDictionaryTest, AccessorsRejectOutOfRangeFaultIndex) {
  EXPECT_THROW(dictionary_.WindowsOf(faults_.size()), std::out_of_range);
  EXPECT_THROW(dictionary_.WindowEntries(dictionary_.WindowCount()),
               std::out_of_range);
}

TEST_F(FaultDictionaryTest, OutOfRangeWindowsCountTowardTheUnionOnly) {
  const std::uint32_t kMax = std::numeric_limits<std::uint32_t>::max();
  // A lone window no candidate predicts scores every candidate 0 — and
  // must not touch memory past the observed row (64 and kMax are past it).
  for (const std::uint32_t w : {dictionary_.WindowCount(), 64u, kMax}) {
    const std::vector<FailDatum> lone = {{w, 0x1234, 0}};
    const auto all = dictionary_.Diagnose(lone, faults_.size());
    ASSERT_EQ(all.size(), faults_.size()) << "window " << w;
    for (const auto& c : all) EXPECT_EQ(c.score, 0.0) << "window " << w;
  }

  // Beside a true fault's fail data: each such index widens the union
  // (equal indices once) and counts in |fail_data|; none matches.
  StumpsSession session(netlist_, DictConfig());
  std::size_t fi = 0;
  std::vector<FailDatum> fail_data;
  for (; fi < faults_.size() && fail_data.empty(); ++fi) {
    fail_data = session.Run(kPatterns, {}, faults_[fi]).fail_data;
  }
  ASSERT_FALSE(fail_data.empty());
  --fi;
  const std::size_t n = fail_data.size();
  fail_data.push_back({dictionary_.WindowCount(), 1, 0});
  fail_data.push_back({64, 2, 0});
  fail_data.push_back({64, 3, 0});
  fail_data.push_back({kMax, 4, 0});
  const auto all = dictionary_.Diagnose(fail_data, faults_.size());
  const auto it = std::find_if(all.begin(), all.end(), [&](const auto& c) {
    return c.fault == faults_[fi];
  });
  ASSERT_NE(it, all.end());
  double want = static_cast<double>(n) / static_cast<double>(n + 3);
  want += static_cast<double>(n) / static_cast<double>(n + 4);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(it->score),
            std::bit_cast<std::uint64_t>(want));
}

TEST_F(FaultDictionaryTest, DiagnoseMatchesReferenceScorer) {
  // A third of the candidate list keeps the session-engine reference cheap.
  std::vector<sim::StuckAtFault> faults;
  for (std::size_t f = 0; f < faults_.size(); f += 3) {
    faults.push_back(faults_[f]);
  }
  const FaultDictionary built(netlist_, DictConfig(), kPatterns, {}, faults);
  const std::uint32_t windows = built.WindowCount();

  ReferenceRows ref;
  ref.words = (windows + 63) / 64;
  ref.faults = faults;
  StumpsSession session(netlist_, DictConfig());
  for (std::size_t f = 0; f < faults.size(); ++f) {
    auto fd = session.Run(kPatterns, {}, faults[f]).fail_data;
    std::sort(fd.begin(), fd.end(), [](const auto& a, const auto& b) {
      return a.window_index < b.window_index;
    });
    std::vector<std::uint64_t> row(ref.words, 0);
    for (const FailDatum& d : fd) {
      row[d.window_index / 64] |= std::uint64_t{1} << (d.window_index % 64);
    }
    ref.rows.push_back(std::move(row));
    ref.fail_data.push_back(std::move(fd));
  }

  // The query mix must exercise signatures shared by several faults in one
  // window (one lookup, several matches).
  bool collision = false;
  for (std::uint32_t w = 0; w < windows; ++w) {
    const auto sigs = built.WindowEntries(w).signatures;
    collision |= std::adjacent_find(sigs.begin(), sigs.end()) != sigs.end();
  }
  ASSERT_TRUE(collision);

  // Seeded fail data built from true fail data plus duplicate windows,
  // wrong signatures, other faults' signatures, dropped data and windows
  // past WindowCount() and past the bitmask rows.
  std::mt19937_64 rng(0xd1a6);
  const auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(rng() % n);
  };
  const std::uint32_t far[] = {windows, 63, 64, 65, 1000,
                               std::numeric_limits<std::uint32_t>::max()};
  std::vector<std::vector<FailDatum>> queries;
  for (int q = 0; q < 160; ++q) {
    std::vector<FailDatum> fd = ref.fail_data[pick(faults.size())];
    const std::size_t edits = pick(6);
    for (std::size_t e = 0; e < edits; ++e) {
      const auto& other = ref.fail_data[pick(faults.size())];
      switch (pick(5)) {
        case 0:
          if (!fd.empty()) fd.push_back(fd[pick(fd.size())]);
          break;
        case 1:
          fd.push_back({static_cast<std::uint32_t>(pick(windows)), rng(), 0});
          break;
        case 2:
          if (!other.empty()) fd.push_back(other[pick(other.size())]);
          break;
        case 3:
          fd.push_back({far[pick(std::size(far))], rng(), 0});
          break;
        default:
          if (!fd.empty()) fd.erase(fd.begin() + pick(fd.size()));
      }
    }
    std::shuffle(fd.begin(), fd.end(), rng);
    queries.push_back(std::move(fd));
  }

  const std::string path = ::testing::TempDir() + "dict_oracle.fdict";
  built.Save(path);
  const auto loaded = FaultDictionary::Load(path);
  const auto mapped = FaultDictionary::Map(path);
  FaultDictionary from_boundary(netlist_, DictConfig(), 192, {}, faults);
  from_boundary.Extend(netlist_, DictConfig(), kPatterns, {});
  FaultDictionary from_partial(netlist_, DictConfig(), 200, {}, faults);
  from_partial.Extend(netlist_, DictConfig(), kPatterns, {});
  const std::pair<const char*, const FaultDictionary*> dicts[] = {
      {"built", &built},
      {"loaded", &loaded},
      {"mapped", &mapped},
      {"extended from a window boundary", &from_boundary},
      {"extended from a partial window", &from_partial}};

  const std::size_t top_ks[] = {0, 1, 5, faults.size(), faults.size() + 100};
  for (std::size_t q = 0; q < queries.size(); ++q) {
    for (const std::size_t top_k : top_ks) {
      const auto want = ReferenceDiagnose(ref, queries[q], top_k);
      for (const auto& [name, dict] : dicts) {
        ExpectRankingEq(dict->Diagnose(queries[q], top_k), want,
                        std::string(name) + " query " + std::to_string(q) +
                            " top_k " + std::to_string(top_k));
      }
    }
  }
  std::remove(path.c_str());
}

TEST_F(FaultDictionaryTest, SaveLoadRoundTripIsBitIdentical) {
  const std::string path = ::testing::TempDir() + "dict_roundtrip.fdict";
  dictionary_.Save(path);
  const auto loaded = FaultDictionary::Load(path);
  EXPECT_FALSE(loaded.IsMapped());
  ExpectBitIdentical(dictionary_, loaded);

  // Diagnose through the loaded copy must rank identically, score-exact.
  StumpsSession session(netlist_, DictConfig());
  for (std::size_t fi = 0; fi < faults_.size(); fi += 173) {
    const auto fail_data = session.Run(kPatterns, {}, faults_[fi]).fail_data;
    ExpectRankingEq(loaded.Diagnose(fail_data, 7),
                    dictionary_.Diagnose(fail_data, 7),
                    "fault " + std::to_string(fi));
  }
  std::remove(path.c_str());
}

TEST_F(FaultDictionaryTest, MappedOpenIsBitIdentical) {
  const std::string path = ::testing::TempDir() + "dict_mapped.fdict";
  dictionary_.Save(path);
  const auto mapped = FaultDictionary::Map(path);
  EXPECT_TRUE(mapped.IsMapped());
  ExpectBitIdentical(dictionary_, mapped);

  StumpsSession session(netlist_, DictConfig());
  for (std::size_t fi = 0; fi < faults_.size(); fi += 173) {
    const auto fail_data = session.Run(kPatterns, {}, faults_[fi]).fail_data;
    ExpectRankingEq(mapped.Diagnose(fail_data, 7),
                    dictionary_.Diagnose(fail_data, 7),
                    "fault " + std::to_string(fi));
  }
  std::remove(path.c_str());
}

TEST_F(FaultDictionaryTest, ExtendMatchesFullRebuildFromWindowBoundary) {
  // 192 = 12 complete windows: Extend only simulates the appended windows.
  FaultDictionary grown(netlist_, DictConfig(), 192, {}, faults_);
  grown.Extend(netlist_, DictConfig(), kPatterns, {});
  ExpectBitIdentical(dictionary_, grown);
}

TEST_F(FaultDictionaryTest, ExtendMatchesFullRebuildFromPartialWindow) {
  // 200 patterns end mid-window: the trailing partial window is re-simulated
  // from its first pattern, then the appended windows.
  FaultDictionary grown(netlist_, DictConfig(), 200, {}, faults_);
  ASSERT_EQ(grown.WindowCount(), 13u);
  grown.Extend(netlist_, DictConfig(), kPatterns, {});
  ExpectBitIdentical(dictionary_, grown);
}

TEST_F(FaultDictionaryTest, ExtendOfMappedDictionaryMaterializesFirst) {
  const std::string path = ::testing::TempDir() + "dict_extend.fdict";
  FaultDictionary small(netlist_, DictConfig(), 192, {}, faults_);
  small.Save(path);
  auto mapped = FaultDictionary::Map(path);
  ASSERT_TRUE(mapped.IsMapped());
  mapped.Extend(netlist_, DictConfig(), kPatterns, {});
  EXPECT_FALSE(mapped.IsMapped());
  ExpectBitIdentical(dictionary_, mapped);
  std::remove(path.c_str());
}

TEST_F(FaultDictionaryTest, ExtendRejectsNonPrefixSessions) {
  FaultDictionary d(netlist_, DictConfig(), 192, {}, faults_);
  // Shrinking.
  EXPECT_THROW(d.Extend(netlist_, DictConfig(), 64, {}),
               std::invalid_argument);
  // Different PRPG stream.
  StumpsConfig other = DictConfig();
  other.prpg_seed = 0x99;
  EXPECT_THROW(d.Extend(netlist_, other, kPatterns, {}),
               std::invalid_argument);
  // Different netlist.
  const auto other_nl = bistdse::testing::MakeSmallRandom(99, 220);
  EXPECT_THROW(d.Extend(other_nl, DictConfig(), kPatterns, {}),
               std::invalid_argument);
}

TEST(FaultDictionaryIo, CorruptedAndTruncatedFilesAreRejected) {
  const auto nl = bistdse::testing::MakeSmallRandom(73, 100);
  auto faults = sim::CollapsedFaults(nl);
  faults.resize(16);
  FaultDictionary dict(nl, DictConfig(), 64, {}, faults);
  const std::string path = ::testing::TempDir() + "dict_corrupt.fdict";
  dict.Save(path);

  const auto file_bytes = [&] {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
  }();
  const auto write_file = [&](const std::string& content) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << content;
  };

  // Truncation: shorter than the header, and payload cut short.
  write_file(file_bytes.substr(0, 32));
  EXPECT_THROW(FaultDictionary::Load(path), std::runtime_error);
  write_file(file_bytes.substr(0, file_bytes.size() - 8));
  EXPECT_THROW(FaultDictionary::Load(path), std::runtime_error);

  // Wrong magic.
  {
    std::string bad = file_bytes;
    bad[0] = 'X';
    write_file(bad);
    EXPECT_THROW(FaultDictionary::Map(path), std::runtime_error);
  }
  // Header corruption is caught by the checksum.
  {
    std::string bad = file_bytes;
    bad[40] = static_cast<char>(bad[40] ^ 0x5a);
    write_file(bad);
    EXPECT_THROW(FaultDictionary::Load(path), std::runtime_error);
  }
  // Payload corruptions below the header checksum. Section offsets are read
  // from the header fields at bytes 120 (window offsets), 128 (entry
  // signatures) and 136 (entry faults); 88 holds the entry count.
  const auto u64_at = [&](std::size_t at) {
    std::uint64_t v;
    std::memcpy(&v, file_bytes.data() + at, sizeof v);
    return v;
  };
  const std::size_t offsets_off = u64_at(120), sigs_off = u64_at(128),
                    faults_off = u64_at(136);
  const std::uint64_t entry_count = u64_at(88);
  const auto patched = [&](std::size_t at, auto value) {
    std::string bad = file_bytes;
    std::memcpy(bad.data() + at, &value, sizeof value);
    return bad;
  };
  const auto rejects = [&](const std::string& bad, bool mapped,
                           const std::string& needle) {
    write_file(bad);
    try {
      (void)(mapped ? FaultDictionary::Map(path)
                    : FaultDictionary::Load(path));
      ADD_FAILURE() << "expected rejection: " << needle;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << e.what();
    }
  };

  // A version-1 artifact is named and sent for a rebuild.
  std::string version1 = file_bytes;
  version1[7] = '1';
  for (const bool mapped : {false, true}) {
    rejects(version1, mapped, "BDSEFD01");
    rejects(version1, mapped, "rebuild");
  }

  // The window offset table is checked by Map as well as Load: it starts at
  // 0, is monotone and ends at the entry count.
  ASSERT_GE(dict.WindowCount(), 2u);
  const std::size_t last = offsets_off + 8 * dict.WindowCount();
  for (const bool mapped : {false, true}) {
    rejects(patched(offsets_off, std::uint64_t{1}), mapped, "window offsets");
    rejects(patched(offsets_off + 8, u64_at(offsets_off + 16) + 1), mapped,
            "window offsets");
    rejects(patched(last, entry_count - 1), mapped, "window offsets");
  }

  // Entry checks are Load-only (Map stays O(metadata)); a mapped table with
  // the same damage opens and still answers queries in bounds.
  std::uint32_t w0 = 0;  // First window with at least two entries.
  while (w0 < dict.WindowCount() && dict.WindowEntries(w0).faults.size() < 2) {
    ++w0;
  }
  ASSERT_LT(w0, dict.WindowCount());
  const auto entries = dict.WindowEntries(w0);
  const std::size_t e0 = u64_at(offsets_off + 8 * w0);
  std::uint32_t idle = 0;  // A fault that does not fail in window w0.
  while (idle < faults.size() &&
         ((dict.WindowsOf(idle)[w0 / 64] >> (w0 % 64)) & 1)) {
    ++idle;
  }
  ASSERT_LT(idle, faults.size());
  std::string unsorted = file_bytes;
  std::memcpy(unsorted.data() + sigs_off + 8 * e0, &entries.signatures[1], 8);
  std::memcpy(unsorted.data() + sigs_off + 8 * (e0 + 1),
              &entries.signatures[0], 8);
  std::memcpy(unsorted.data() + faults_off + 4 * e0, &entries.faults[1], 4);
  std::memcpy(unsorted.data() + faults_off + 4 * (e0 + 1), &entries.faults[0],
              4);
  const std::pair<std::string, std::string> entry_damage[] = {
      {patched(faults_off + 4 * e0, std::uint32_t{16}), "fault index 16"},
      {patched(faults_off + 4 * e0,
               std::numeric_limits<std::uint32_t>::max()),
       "out of range"},
      {patched(faults_off + 4 * e0, idle), "does not fail once"},
      {unsorted, "not sorted"}};
  const std::vector<FailDatum> probe = {
      {w0, entries.signatures[0], 0}, {w0, entries.signatures[1], 0}};
  for (const auto& [bad, needle] : entry_damage) {
    rejects(bad, /*mapped=*/false, needle);
    write_file(bad);
    const auto mapped = FaultDictionary::Map(path);
    EXPECT_EQ(mapped.Diagnose(probe, faults.size()).size(), faults.size());
  }

  // The error message names the file and the defect.
  write_file(file_bytes.substr(0, 32));
  try {
    FaultDictionary::Load(path);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(path), std::string::npos) << what;
    EXPECT_NE(what.find("truncated"), std::string::npos) << what;
  }
  // Intact file still opens after the tampering round-trips.
  write_file(file_bytes);
  EXPECT_NO_THROW(FaultDictionary::Load(path));
  std::remove(path.c_str());

  EXPECT_THROW(FaultDictionary::Load(path + ".missing"), std::runtime_error);
}

TEST(FaultDictionaryIo, UnusableOrMismatchedMisrWidthIsRejected) {
  const auto nl = bistdse::testing::MakeSmallRandom(79, 100);
  auto faults = sim::CollapsedFaults(nl);
  faults.resize(16);
  StumpsConfig config = DictConfig();
  config.misr_width = 16;
  const std::string path = ::testing::TempDir() + "dict_misr_width.fdict";
  FaultDictionary(nl, config, 48, {}, faults).Save(path);
  const std::string file_bytes = [&] {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
  }();
  // The header's misr_width (a u32 at byte 100), with the header checksum
  // (FNV-1a over bytes [0, 144), stored at 144) recomputed so the artifact
  // passes every other check.
  const auto with_misr_width = [&](std::uint32_t width) {
    std::string bad = file_bytes;
    std::memcpy(bad.data() + 100, &width, sizeof width);
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (std::size_t i = 0; i < 144; ++i) {
      h = (h ^ static_cast<unsigned char>(bad[i])) * 0x100000001b3ULL;
    }
    std::memcpy(bad.data() + 144, &h, sizeof h);
    std::ofstream(path, std::ios::binary | std::ios::trunc) << bad;
  };

  for (const std::uint32_t width : {0u, 65u}) {
    with_misr_width(width);
    for (const bool mapped : {false, true}) {
      try {
        (void)(mapped ? FaultDictionary::Map(path)
                      : FaultDictionary::Load(path));
        ADD_FAILURE() << "misr_width " << width << " accepted";
      } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("misr_width"), std::string::npos)
            << e.what();
      }
    }
  }

  // A valid width that disagrees with the session config the dictionary is
  // extended under is refused before anything is rebuilt.
  with_misr_width(32);
  FaultDictionary dict = FaultDictionary::Load(path);
  try {
    dict.Extend(nl, config, 96, {});
    ADD_FAILURE() << "Extend accepted a mismatched misr_width";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("misr_width"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(dict.TotalPatterns(), 48u);
  std::remove(path.c_str());
}

TEST(FaultDictionaryConfig, RejectsPlainMisr) {
  auto nl = bistdse::testing::MakeSmallRandom(73, 100);
  StumpsConfig config = DictConfig();
  config.reset_misr_per_window = false;
  auto faults = sim::CollapsedFaults(nl);
  faults.resize(10);
  EXPECT_THROW(FaultDictionary(nl, config, 64, {}, faults),
               std::invalid_argument);
}

}  // namespace
}  // namespace bistdse::bist
