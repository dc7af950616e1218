#include <gtest/gtest.h>

#include <set>

#include "bist/lfsr.hpp"
#include "bist/misr.hpp"

namespace bistdse::bist {
namespace {

TEST(Lfsr, MaximalPeriodDegree8) {
  // The built-in degree-8 polynomial is primitive: the state sequence must
  // visit all 2^8 - 1 non-zero states before repeating.
  Lfsr lfsr(Lfsr::DefaultPolynomial(8), 0x5A);
  auto state = [&lfsr] {
    unsigned packed = 0;
    for (std::uint8_t bit : lfsr.State()) packed = packed << 1 | bit;
    return packed;
  };
  std::set<unsigned> seen;
  for (int i = 0; i < 255; ++i) {
    EXPECT_TRUE(seen.insert(state()).second) << "state repeated at " << i;
    lfsr.Step();
  }
  // After 255 steps the sequence wraps.
  EXPECT_TRUE(seen.count(state()));
}

TEST(Lfsr, DeterministicStream) {
  Lfsr a(Lfsr::DefaultPolynomial(32), 12345);
  Lfsr b(Lfsr::DefaultPolynomial(32), 12345);
  EXPECT_EQ(a.Emit(1000), b.Emit(1000));
}

TEST(Lfsr, SeedsProduceDifferentStreams) {
  Lfsr a(Lfsr::DefaultPolynomial(32), 1);
  Lfsr b(Lfsr::DefaultPolynomial(32), 2);
  EXPECT_NE(a.Emit(128), b.Emit(128));
}

TEST(Lfsr, ZeroSeedIsUnlocked) {
  Lfsr lfsr(Lfsr::DefaultPolynomial(16), 0);
  auto bits = lfsr.Emit(64);
  bool any_one = false;
  for (auto b : bits) any_one |= b != 0;
  EXPECT_TRUE(any_one);
}

TEST(Lfsr, ExplicitSeedBitsRoundTrip) {
  std::vector<std::uint8_t> seed(24, 0);
  seed[3] = seed[10] = seed[23] = 1;
  Lfsr lfsr(Lfsr::DefaultPolynomial(24), seed);
  EXPECT_EQ(lfsr.State(), seed);
  EXPECT_EQ(lfsr.Degree(), 24u);
}

TEST(Lfsr, LinearityOfStreams) {
  // LFSR streams are linear in the seed: stream(a XOR b) = stream(a) XOR
  // stream(b). This property is what reseeding encoding relies on.
  const auto taps = Lfsr::DefaultPolynomial(16);
  std::vector<std::uint8_t> sa(16, 0), sb(16, 0), sx(16, 0);
  sa[2] = sa[7] = 1;
  sb[7] = sb[11] = 1;
  for (int i = 0; i < 16; ++i) sx[i] = sa[i] ^ sb[i];
  Lfsr la(taps, sa), lb(taps, sb), lx(taps, sx);
  const auto ea = la.Emit(200), eb = lb.Emit(200), ex = lx.Emit(200);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(ex[i], ea[i] ^ eb[i]) << "position " << i;
  }
}

TEST(Lfsr, RejectsInvalidConstruction) {
  EXPECT_THROW(Lfsr({}, 1), std::invalid_argument);
  EXPECT_THROW(Lfsr({0}, 1), std::invalid_argument);
  std::vector<std::uint8_t> wrong(5, 0);
  EXPECT_THROW(Lfsr(Lfsr::DefaultPolynomial(16), wrong),
               std::invalid_argument);
}

TEST(Misr, DifferentResponsesGiveDifferentSignatures) {
  // (Not guaranteed in general — aliasing — but these two short responses
  // must not alias in a 32-bit MISR.)
  Misr a, b;
  for (int i = 0; i < 100; ++i) a.AbsorbBit(i % 3 == 0);
  for (int i = 0; i < 100; ++i) b.AbsorbBit(i % 3 == 1);
  EXPECT_NE(a.Signature(), b.Signature());
}

TEST(Misr, ResetRestoresInitialState) {
  Misr m;
  m.AbsorbWord(0xDEADBEEF, 32);
  m.Reset();
  EXPECT_EQ(m.Signature(), 0u);
}

TEST(Misr, SignatureIsOrderSensitive) {
  Misr a, b;
  a.AbsorbBit(1);
  a.AbsorbBit(0);
  a.AbsorbBit(0);
  b.AbsorbBit(0);
  b.AbsorbBit(0);
  b.AbsorbBit(1);
  EXPECT_NE(a.Signature(), b.Signature());
}

}  // namespace
}  // namespace bistdse::bist
