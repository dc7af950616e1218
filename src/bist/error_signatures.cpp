#include "bist/error_signatures.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "bist/misr.hpp"

namespace bistdse::bist {

using sim::PatternWord;

ErrorSignatureSink::ErrorSignatureSink(
    std::size_t num_outputs, const WindowLayout& layout,
    std::span<const sim::StuckAtFault> faults, bool track_golden,
    WindowFn on_window)
    : num_outputs_(num_outputs),
      layout_(layout),
      faults_(faults),
      track_golden_(track_golden),
      on_window_(std::move(on_window)),
      carry_(layout.strong ? 0 : faults.size(), 0) {
  if (layout.window == 0) {
    throw std::invalid_argument("signature window must be >= 1");
  }
  open_ = layout.first_pattern / layout.window;
  // Exponents reach (longest window) * outputs - 1; a weak-window shift of
  // a misr_width-bit state by a window's bit length reaches misr_width past
  // that.
  const std::uint64_t longest =
      std::min(layout.window, layout.total_patterns);
  powers_ = MisrPowers(layout.misr_width,
                       static_cast<std::size_t>(longest * num_outputs) +
                           layout.misr_width);
}

bool ErrorSignatureSink::OnBlock(sim::CampaignBlock& block) {
  const std::size_t count = block.Count();
  const std::uint64_t begin = layout_.first_pattern + block.BaseIndex();
  const std::uint64_t end = begin + count;
  if (end > layout_.total_patterns) {
    throw std::logic_error("ErrorSignatureSink: campaign ran past the session");
  }
  const std::size_t faults = faults_.size();
  const std::uint64_t last = (end - 1) / layout_.window;
  const std::size_t touched = static_cast<std::size_t>(last - open_ + 1);
  if (golden_rows_.size() < touched) {
    rows_.resize(touched * faults, 0);
    golden_rows_.resize(touched, 0);
  }

  // Where each pattern of the block lands: its window's row, and the
  // exponent x^top of its core output 0 (output j adds x^(top - j)).
  row_of_.resize(count);
  top_.resize(count);
  {
    std::uint64_t w = begin / layout_.window;
    std::uint64_t q = begin - w * layout_.window;
    for (std::size_t i = 0; i < count; ++i) {
      row_of_[i] = static_cast<std::size_t>(w - open_);
      top_[i] = static_cast<std::size_t>(
          (layout_.WindowLength(w) - q) * num_outputs_ - 1);
      if (++q == layout_.window) {
        ++w;
        q = 0;
      }
    }
  }

  if (track_golden_) {
    const std::span<const PatternWord> good = block.GoodOutputLanes();
    const std::size_t lanes = block.Lanes();
    for (std::size_t j = 0; j < num_outputs_; ++j) {
      for (std::size_t l = 0; l < lanes; ++l) {
        for (PatternWord b = good[j * lanes + l] &
                             sim::BlockMask(block.LaneCount(l));
             b != 0; b &= b - 1) {
          const std::size_t i = l * 64 + std::countr_zero(b);
          golden_rows_[row_of_[i]] ^= powers_[top_[i] - j];
        }
      }
    }
  }

  if (faults != 0) {
    std::uint64_t* rows = rows_.data();
    block.ParallelFor(faults, [&](std::size_t f, sim::FaultView& view) {
      for (const sim::OutputError& e : view.OutputErrors(faults_[f])) {
        const std::size_t lane_base = std::size_t{e.lane} * 64;
        for (PatternWord b = e.bits; b != 0; b &= b - 1) {
          const std::size_t i = lane_base + std::countr_zero(b);
          rows[row_of_[i] * faults + f] ^= powers_[top_[i] - e.output];
        }
      }
    });
  }

  // Flush every window the block completed, in window order.
  std::uint64_t w = open_;
  for (; w <= last && std::min((w + 1) * layout_.window,
                               layout_.total_patterns) <= end;
       ++w) {
    const std::size_t r = static_cast<std::size_t>(w - open_);
    const std::span<std::uint64_t> errors(rows_.data() + r * faults, faults);
    std::uint64_t& golden = golden_rows_[r];
    if (!layout_.strong) {
      const std::size_t bits =
          static_cast<std::size_t>(layout_.WindowLength(w) * num_outputs_);
      for (std::size_t f = 0; f < faults; ++f) {
        errors[f] ^= MisrShift(powers_, carry_[f], bits);
        carry_[f] = errors[f];
      }
      golden ^= MisrShift(powers_, golden_carry_, bits);
      golden_carry_ = golden;
    }
    on_window_(static_cast<std::uint32_t>(w), golden, errors);
  }
  // Row 0 takes the window still open, if any; every other touched row
  // restarts at zero.
  const std::size_t flushed = static_cast<std::size_t>(w - open_);
  if (flushed > 0) {
    std::size_t clear_from = 0;
    if (w <= last) {
      std::copy_n(rows_.begin() + flushed * faults, faults, rows_.begin());
      golden_rows_[0] = golden_rows_[flushed];
      clear_from = 1;
    }
    std::fill(rows_.begin() + clear_from * faults,
              rows_.begin() + touched * faults, 0);
    std::fill(golden_rows_.begin() + clear_from,
              golden_rows_.begin() + touched, 0);
    open_ = w;
  }
  return true;
}

}  // namespace bistdse::bist
