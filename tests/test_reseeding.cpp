#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "bist/reseeding.hpp"
#include "util/rng.hpp"

namespace bistdse::bist {
namespace {

using atpg::TestCube;
using atpg::Value3;
using sim::BitPattern;

/// The encoder as it was before its rows came from the LFSR recurrence:
/// every basis seed e_i is expanded by concrete simulation of the Lfsr
/// class, and row p of the system is bit p of those streams. Kept verbatim
/// as the oracle of ReseedingEncoder::Encode.
class BasisStreamEncoder {
 public:
  BasisStreamEncoder(std::uint32_t width, std::uint32_t margin)
      : width_(width), margin_(margin) {}

  const std::vector<BitPattern>& BasisStreams(std::uint32_t degree) {
    for (const auto& entry : cache_) {
      if (entry.first == degree) return entry.second;
    }
    std::vector<BitPattern> streams(degree);
    const auto taps = Lfsr::DefaultPolynomial(degree);
    for (std::uint32_t i = 0; i < degree; ++i) {
      std::vector<std::uint8_t> seed(degree, 0);
      seed[i] = 1;
      Lfsr lfsr(taps, seed);
      streams[i] = lfsr.Emit(width_);
    }
    cache_.emplace_back(degree, std::move(streams));
    return cache_.back().second;
  }

  std::optional<EncodedPattern> Encode(const TestCube& cube) {
    if (cube.bits.size() != width_)
      throw std::invalid_argument("cube width mismatch");

    std::vector<std::uint32_t> care_pos;
    for (std::uint32_t i = 0; i < width_; ++i) {
      if (cube.bits[i] != Value3::X) care_pos.push_back(i);
    }
    const std::uint32_t s = static_cast<std::uint32_t>(care_pos.size());

    std::uint32_t degree = std::max<std::uint32_t>(8, s + margin_);
    while (degree <= width_ + margin_ + 64) {
      const auto& basis = BasisStreams(degree);

      // Build the system: for each care position p,
      //   XOR_{i: seed_i = 1} basis[i][p] = cube bit at p.
      // Row-reduce with rows = equations, columns = seed bits (packed 64/word).
      const std::uint32_t words = (degree + 63) / 64;
      std::vector<std::vector<std::uint64_t>> rows(s);
      std::vector<std::uint8_t> rhs(s);
      for (std::uint32_t e = 0; e < s; ++e) {
        rows[e].assign(words, 0);
        const std::uint32_t p = care_pos[e];
        for (std::uint32_t i = 0; i < degree; ++i) {
          if (basis[i][p]) rows[e][i / 64] ^= std::uint64_t{1} << (i % 64);
        }
        rhs[e] = cube.bits[p] == Value3::One ? 1 : 0;
      }

      // Gaussian elimination.
      std::vector<std::int32_t> pivot_of_row(s, -1);
      std::uint32_t rank = 0;
      bool inconsistent = false;
      for (std::uint32_t col = 0; col < degree && rank < s; ++col) {
        std::uint32_t r = rank;
        while (r < s && !((rows[r][col / 64] >> (col % 64)) & 1)) ++r;
        if (r == s) continue;
        std::swap(rows[r], rows[rank]);
        std::swap(rhs[r], rhs[rank]);
        for (std::uint32_t k = 0; k < s; ++k) {
          if (k == rank) continue;
          if ((rows[k][col / 64] >> (col % 64)) & 1) {
            for (std::uint32_t w = 0; w < words; ++w) rows[k][w] ^= rows[rank][w];
            rhs[k] = static_cast<std::uint8_t>(rhs[k] ^ rhs[rank]);
          }
        }
        pivot_of_row[rank] = static_cast<std::int32_t>(col);
        ++rank;
      }
      for (std::uint32_t k = rank; k < s; ++k) {
        if (rhs[k]) {
          inconsistent = true;
          break;
        }
      }

      if (!inconsistent) {
        EncodedPattern enc;
        enc.lfsr_degree = degree;
        enc.seed_bits.assign(degree, 0);
        for (std::uint32_t r = 0; r < rank; ++r) {
          if (rhs[r]) enc.seed_bits[pivot_of_row[r]] = 1;
        }
        return enc;
      }
      degree += 16;  // rank deficiency: retry with more stages
    }
    return std::nullopt;
  }

 private:
  std::uint32_t width_;
  std::uint32_t margin_;
  // degree -> per-basis-bit emitted stream
  std::vector<std::pair<std::uint32_t, std::vector<BitPattern>>> cache_;
};

TestCube RandomCube(std::uint32_t width, std::uint32_t care_bits,
                    util::SplitMix64& rng) {
  TestCube cube;
  cube.bits.assign(width, Value3::X);
  for (std::uint32_t placed = 0; placed < care_bits;) {
    const auto pos = static_cast<std::size_t>(rng.Below(width));
    if (cube.bits[pos] != Value3::X) continue;
    cube.bits[pos] = rng.Chance(0.5) ? Value3::One : Value3::Zero;
    ++placed;
  }
  return cube;
}

TEST(Reseeding, ExpansionHonorsCareBits) {
  util::SplitMix64 rng(1);
  ReseedingEncoder encoder(120);
  for (int trial = 0; trial < 50; ++trial) {
    const auto cube = RandomCube(120, 8 + trial, rng);
    const auto enc = encoder.Encode(cube);
    ASSERT_TRUE(enc.has_value()) << "trial " << trial;
    const auto expanded = encoder.Expand(*enc);
    ASSERT_EQ(expanded.size(), 120u);
    for (std::size_t i = 0; i < 120; ++i) {
      if (cube.bits[i] == Value3::X) continue;
      EXPECT_EQ(expanded[i], cube.bits[i] == Value3::One ? 1 : 0)
          << "trial " << trial << " position " << i;
    }
  }
}

bool IsTableDegree(std::uint32_t degree) {
  return degree == 8 || degree == 16 || degree == 24 || degree == 32 ||
         degree == 48 || degree == 64;
}

// Degree and seed bits of Encode equal the basis-stream oracle's byte for
// byte: every care count of each width, under the classic margin of 20 and
// under margin 0, where s care bits meet an s-stage LFSR and rank
// deficiency (the degree += 16 retry) is common.
TEST(Reseeding, RowsMatchTheBasisStreamOracle) {
  util::SplitMix64 rng(27);
  std::set<std::uint32_t> table_degrees;
  std::size_t generic = 0;
  std::size_t retries = 0;
  std::size_t cubes = 0;
  auto check = [&](const ReseedingEncoder& encoder, BasisStreamEncoder& oracle,
                   const TestCube& cube, std::uint32_t first_degree,
                   const std::string& label) {
    const auto want = oracle.Encode(cube);
    const auto got = encoder.Encode(cube);
    ASSERT_EQ(want.has_value(), got.has_value()) << label;
    ++cubes;
    if (!want) return;
    ASSERT_EQ(got->lfsr_degree, want->lfsr_degree) << label;
    ASSERT_EQ(got->seed_bits, want->seed_bits) << label;
    if (IsTableDegree(want->lfsr_degree)) {
      table_degrees.insert(want->lfsr_degree);
    } else {
      ++generic;
    }
    if (want->lfsr_degree != first_degree) ++retries;
  };
  for (std::uint32_t width : {8u, 64u, 65u, 130u, 320u}) {
    for (std::uint32_t margin : {20u, 0u}) {
      const ReseedingEncoder encoder(width, margin);
      BasisStreamEncoder oracle(width, margin);
      for (std::uint32_t care = 0; care <= width; ++care) {
        const TestCube cube = RandomCube(width, care, rng);
        check(encoder, oracle, cube, std::max<std::uint32_t>(8, care + margin),
              "width " + std::to_string(width) + " margin " +
                  std::to_string(margin) + " care " + std::to_string(care));
      }
    }
  }

  // Under the classic margin the retry needs a dependent care set: with the
  // generic polynomial x^30 + x^29 + x + 1, stream bit 30 is the xor of bits
  // 0, 1 and 29, so ten care bits (an LFSR of 30 stages) that set bit 30
  // against them are unsolvable until the seed grows to 46 stages.
  const ReseedingEncoder encoder(64);
  BasisStreamEncoder oracle(64, 20);
  TestCube cube;
  cube.bits.assign(64, Value3::X);
  for (std::uint32_t p : {0u, 1u, 2u, 3u, 4u, 5u, 6u, 7u, 29u}) {
    cube.bits[p] = Value3::Zero;
  }
  cube.bits[30] = Value3::One;
  const std::size_t sweep_retries = retries;
  check(encoder, oracle, cube, 30, "constructed retry");
  EXPECT_EQ(retries, sweep_retries + 1);
  EXPECT_EQ(encoder.Encode(cube)->lfsr_degree, 46u);

  EXPECT_EQ(cubes, 2u * (9 + 65 + 66 + 131 + 321) + 1);
  EXPECT_EQ(table_degrees,
            (std::set<std::uint32_t>{8, 16, 24, 32, 48, 64}));
  EXPECT_GT(generic, 0u);
  EXPECT_GT(sweep_retries, 0u);
}

TEST(Reseeding, SeedIsSmallerThanPattern) {
  // The whole point of reseeding: storage proportional to care bits, not to
  // scan-chain length.
  util::SplitMix64 rng(2);
  ReseedingEncoder encoder(2000);
  const auto cube = RandomCube(2000, 30, rng);
  const auto enc = encoder.Encode(cube);
  ASSERT_TRUE(enc.has_value());
  EXPECT_LT(enc->StorageBytes(), 2000u / 8);
  EXPECT_LE(enc->lfsr_degree, 30u + 20u + 64u);
}

TEST(Reseeding, FullySpecifiedCubeStillEncodable) {
  // Degenerate but legal: every bit is a care bit. The encoder must grow the
  // seed until the system solves (possibly degree > width).
  util::SplitMix64 rng(3);
  ReseedingEncoder encoder(48);
  const auto cube = RandomCube(48, 48, rng);
  const auto enc = encoder.Encode(cube);
  ASSERT_TRUE(enc.has_value());
  const auto expanded = encoder.Expand(*enc);
  for (std::size_t i = 0; i < 48; ++i) {
    EXPECT_EQ(expanded[i], cube.bits[i] == Value3::One ? 1 : 0);
  }
}

TEST(Reseeding, AllZeroCube) {
  ReseedingEncoder encoder(64);
  TestCube cube;
  cube.bits.assign(64, Value3::Zero);
  const auto enc = encoder.Encode(cube);
  ASSERT_TRUE(enc.has_value());
  const auto expanded = encoder.Expand(*enc);
  for (auto b : expanded) EXPECT_EQ(b, 0);
}

TEST(Reseeding, EmptyCubeEncodesTrivially) {
  ReseedingEncoder encoder(64);
  TestCube cube;
  cube.bits.assign(64, Value3::X);
  const auto enc = encoder.Encode(cube);
  ASSERT_TRUE(enc.has_value());
  EXPECT_EQ(encoder.Expand(*enc).size(), 64u);
}

TEST(Reseeding, RejectsWidthMismatch) {
  ReseedingEncoder encoder(64);
  TestCube cube;
  cube.bits.assign(32, Value3::X);
  EXPECT_THROW(encoder.Encode(cube), std::invalid_argument);
}

TEST(Reseeding, StorageBytesFormula) {
  EncodedPattern enc;
  enc.lfsr_degree = 33;
  enc.seed_bits.assign(33, 0);
  EXPECT_EQ(enc.StorageBytes(), 5u + 2u);  // ceil(33/8)=5 + header
}

}  // namespace
}  // namespace bistdse::bist
