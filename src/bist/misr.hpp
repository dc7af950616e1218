// Multiple-Input Signature Register: the response compactor (TRE) of the
// STUMPS architecture.
//
// The MISR is linear over GF(2): one absorb step maps (state, bit) to
// shift(state) XOR feedback XOR bit, with no carries. From reset, absorbing
// bits b_0 .. b_{N-1} therefore leaves
//
//   sig(b) = XOR over p with b_p = 1 of x^(N-1-p) mod P,
//
// where x^k mod P (MisrPowers) is the state a reset MISR holds after
// absorbing a 1 followed by k zeros. Two consequences carry the signature
// engines (bist::ErrorSignatureSink):
//   * faulty = golden XOR sig(faulty XOR good): a fault's window signature
//     is the golden one XOR the signature of its error bits alone, and the
//     fault fails the window exactly when that error signature is nonzero;
//   * continuing from a state s over N more bits multiplies s by x^N, which
//     is the XOR of x^(N+i) over the set bits i of s (MisrShift) — how weak
//     windows (no reset between windows) chain their signatures.
#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace bistdse::bist {

/// Serial-absorption MISR model. Hardware MISRs absorb one word per scan
/// cycle; for signature computation the absorption order only has to be
/// deterministic and identical between golden and observed runs, so the
/// session engines absorb response bits in (pattern, core output) order.
class Misr {
 public:
  /// `poly` is the feedback polynomial as a bitmask over x^1..x^width
  /// (bit i-1 represents x^i). Throws std::invalid_argument naming
  /// `misr_width` unless 1 <= width <= 64.
  explicit Misr(std::uint32_t width = 32, std::uint64_t poly = 0xC0000401u)
      : width_(CheckedWidth(width)), poly_(poly) {}

  void Reset() { state_ = 0; }

  void AbsorbBit(bool bit) {
    const std::uint64_t msb = (state_ >> (width_ - 1)) & 1;
    state_ = (state_ << 1) & MaskBits();
    if (msb) state_ ^= poly_ & MaskBits();
    state_ ^= static_cast<std::uint64_t>(bit);
  }

  /// Absorbs the low `n` bits of `word`, LSB first.
  void AbsorbWord(std::uint64_t word, std::uint32_t n) {
    for (std::uint32_t i = 0; i < n; ++i) AbsorbBit((word >> i) & 1);
  }

  std::uint64_t Signature() const { return state_; }
  std::uint32_t Width() const { return width_; }

  static std::uint32_t CheckedWidth(std::uint32_t width) {
    if (width < 1 || width > 64) {
      throw std::invalid_argument("misr_width must be in [1, 64] (got " +
                                  std::to_string(width) + ")");
    }
    return width;
  }

 private:
  std::uint64_t MaskBits() const {
    return width_ >= 64 ? ~std::uint64_t{0} : ((std::uint64_t{1} << width_) - 1);
  }

  std::uint32_t width_;
  std::uint64_t poly_;
  std::uint64_t state_ = 0;
};

/// x^k mod P of a `width`-bit default-polynomial Misr for k in [0, count),
/// derived by running the Misr itself (absorb a 1, then zeros), so the
/// register has one definition.
inline std::vector<std::uint64_t> MisrPowers(std::uint32_t width,
                                             std::size_t count) {
  std::vector<std::uint64_t> powers;
  powers.reserve(count);
  Misr misr(width);
  if (count > 0) misr.AbsorbBit(true);
  while (powers.size() < count) {
    powers.push_back(misr.Signature());
    misr.AbsorbBit(false);
  }
  return powers;
}

/// state * x^n: the MISR state after absorbing n zeros from `state`. Needs
/// powers.size() >= n + width.
inline std::uint64_t MisrShift(std::span<const std::uint64_t> powers,
                               std::uint64_t state, std::size_t n) {
  std::uint64_t shifted = 0;
  for (; state != 0; state &= state - 1) {
    shifted ^= powers[n + static_cast<std::size_t>(std::countr_zero(state))];
  }
  return shifted;
}

}  // namespace bistdse::bist
