#include "bist/reseeding.hpp"

#include <algorithm>

namespace bistdse::bist {

using atpg::TestCube;
using atpg::Value3;
using sim::BitPattern;

ReseedingEncoder::ReseedingEncoder(std::uint32_t width, std::uint32_t margin)
    : width_(width), margin_(margin) {
  if (width == 0) throw std::invalid_argument("width must be > 0");
}

std::optional<EncodedPattern> ReseedingEncoder::Encode(
    const TestCube& cube) const {
  if (cube.bits.size() != width_)
    throw std::invalid_argument("cube width mismatch");

  std::vector<std::uint32_t> care_pos;
  for (std::uint32_t i = 0; i < width_; ++i) {
    if (cube.bits[i] != Value3::X) care_pos.push_back(i);
  }
  const std::uint32_t s = static_cast<std::uint32_t>(care_pos.size());
  const std::uint32_t rows_needed = s == 0 ? 0 : care_pos.back() + 1;

  std::uint32_t degree = std::max<std::uint32_t>(8, s + margin_);
  std::vector<std::uint64_t> stream;
  while (degree <= width_ + margin_ + 64) {
    // Row p (bit i = seed bit i's contribution to stream bit p), packed 64
    // seed bits per word. Lfsr::Step emits its oldest stage and appends the
    // feedback stage[0] ^ stage[L - t] over the taps 0 < t < L, so stream
    // bit p < L is seed bit p, and bit p >= L is bit p - L xor bit p - t
    // over the same taps. Linearity carries that recurrence to the rows.
    const std::uint32_t words = (degree + 63) / 64;
    const auto taps = Lfsr::DefaultPolynomial(degree);
    stream.assign(std::size_t{rows_needed} * words, 0);
    for (std::uint32_t p = 0; p < rows_needed; ++p) {
      std::uint64_t* row = &stream[std::size_t{p} * words];
      if (p < degree) {
        row[p / 64] = std::uint64_t{1} << (p % 64);
        continue;
      }
      const std::uint64_t* oldest = &stream[std::size_t{p - degree} * words];
      for (std::uint32_t w = 0; w < words; ++w) row[w] = oldest[w];
      for (std::uint32_t t : taps) {
        if (t == 0 || t == degree) continue;
        const std::uint64_t* tap = &stream[std::size_t{p - t} * words];
        for (std::uint32_t w = 0; w < words; ++w) row[w] ^= tap[w];
      }
    }

    // The system: one equation per care position p,
    //   XOR_{i: seed_i = 1} row[p][i] = cube bit at p,
    // row-reduced with rows = equations, columns = seed bits.
    std::vector<std::vector<std::uint64_t>> rows(s);
    std::vector<std::uint8_t> rhs(s);
    for (std::uint32_t e = 0; e < s; ++e) {
      const std::uint32_t p = care_pos[e];
      const std::uint64_t* row = &stream[std::size_t{p} * words];
      rows[e].assign(row, row + words);
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

BitPattern ReseedingEncoder::Expand(const EncodedPattern& encoded) const {
  Lfsr lfsr(Lfsr::DefaultPolynomial(encoded.lfsr_degree), encoded.seed_bits);
  return lfsr.Emit(width_);
}

std::uint64_t HashEncodedPatterns(std::span<const EncodedPattern> patterns) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ULL;
  };
  mix(patterns.size());
  for (const EncodedPattern& enc : patterns) {
    mix(enc.lfsr_degree);
    for (std::uint8_t b : enc.seed_bits) mix(b);
  }
  return h;
}

}  // namespace bistdse::bist
