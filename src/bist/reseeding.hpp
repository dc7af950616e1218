// LFSR reseeding: encoding of deterministic test cubes as LFSR seeds.
//
// A cube with s care bits is encoded as a seed of an L-stage LFSR with
// L >= s + margin; expanding the seed reproduces the care bits exactly while
// don't-care positions receive pseudo-random fill. The per-pattern storage is
// ceil(L/8) bytes instead of ceil(width/8) — this is the "encoded
// deterministic test data" of the paper's BIST data task b^D.
//
// The encoder solves the GF(2) linear system relating seed bits to emitted
// stream bits by Gaussian elimination. Each stream bit's row of that system
// comes from the recurrence Lfsr::Step implements (reseeding.cpp), while
// expansion runs the Lfsr itself; tests/test_reseeding.cpp holds the two
// together (RowsMatchTheBasisStreamOracle against concrete basis-seed
// simulation, ExpansionHonorsCareBits against expansion).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "atpg/podem.hpp"
#include "bist/lfsr.hpp"
#include "sim/pattern_set.hpp"

namespace bistdse::bist {

struct EncodedPattern {
  std::uint32_t lfsr_degree = 0;
  std::vector<std::uint8_t> seed_bits;  ///< size == lfsr_degree

  /// Stored size in bytes (seed plus a 2-byte degree/length header).
  std::size_t StorageBytes() const { return (lfsr_degree + 7) / 8 + 2; }
};

/// FNV-1a over the encoded seed content (degree + seed bits, count-mixed).
/// Caches keying a deterministic pattern list (the golden-signature cache,
/// fault-dictionary session identity) hash *content*, not just count.
std::uint64_t HashEncodedPatterns(std::span<const EncodedPattern> patterns);

class ReseedingEncoder {
 public:
  /// `margin`: extra seed stages beyond the care-bit count (the classic
  /// s_max + 20 rule); `width`: emitted bits per pattern (number of core
  /// inputs / scan cells).
  explicit ReseedingEncoder(std::uint32_t width, std::uint32_t margin = 20);

  /// Encodes one cube. Returns nullopt only if the system stays unsolvable
  /// after growing the seed to `width` stages (practically impossible).
  /// Keeps no state, so one encoder may serve several threads.
  std::optional<EncodedPattern> Encode(const atpg::TestCube& cube) const;

  /// Expands an encoded pattern to a fully specified test pattern.
  sim::BitPattern Expand(const EncodedPattern& encoded) const;

 private:
  std::uint32_t width_;
  std::uint32_t margin_;
};

}  // namespace bistdse::bist
