// Streaming fault-simulation campaign kernel — the one inner loop behind
// every BIST pattern campaign (profile coverage curves, fault-dictionary
// rows, MISR signature tracking, diagnosis window prediction, ATPG drop
// scans).
//
// A campaign pulls W*64-pattern blocks from a pluggable PatternSource,
// fault-simulates them on the shared ThreadPool via
// ParallelFaultSimulatorT<W>, and feeds one or more pluggable CampaignSinks
// with a width-erased view of each simulated block. Runtime `block_width`
// dispatch, thread-count plumbing, the narrow warm-up for drop-heavy heads,
// and fault-drop bookkeeping all live here — consumers only describe where
// patterns come from and what to do with each block.
//
// Determinism contract (inherited from the wide datapath and the pool): a
// campaign's observable results are bit-identical for every (block_width,
// threads) pair. Tracked detect blocks are produced per fault index and
// merged serially in index order; sinks observe blocks in stream order on
// the calling thread; ParallelFor sweeps hand each index to exactly one
// worker. Lane l, bit k of a block is pattern BaseIndex() + l*64 + k, so
// lane-then-bit iteration reproduces the serial pattern order exactly.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "sim/fault_sim.hpp"
#include "sim/parallel_fault_sim.hpp"

namespace bistdse::sim {

/// A source of fully specified test patterns, pulled block by block.
/// Implementations exist for every campaign flavor: the PRPG LFSR /
/// STUMPS phase-shifter stream and the full session stream with reseeding
/// expansion live in src/bist (bist::PrpgSource, bist::SessionStreamSource);
/// stored pattern lists (ATPG top-up, window replays) use
/// StoredPatternSource below.
class PatternSource {
 public:
  virtual ~PatternSource() = default;

  /// Appends up to `max_patterns` next patterns of the stream to `out`.
  /// Returning fewer than `max_patterns` (including 0) means the stream is
  /// exhausted; the runner never calls Fill again after a short read.
  virtual std::size_t Fill(std::size_t max_patterns,
                           std::vector<BitPattern>& out) = 0;
};

/// PatternSource over a stored pattern list, in order or reversed (the
/// reverse-order compaction walk of atpg::CompactPatterns). The span must
/// outlive the source.
class StoredPatternSource final : public PatternSource {
 public:
  explicit StoredPatternSource(std::span<const BitPattern> patterns,
                               bool reversed = false)
      : patterns_(patterns), reversed_(reversed) {}

  std::size_t Fill(std::size_t max_patterns,
                   std::vector<BitPattern>& out) override {
    std::size_t emitted = 0;
    while (emitted < max_patterns && next_ < patterns_.size()) {
      const std::size_t i =
          reversed_ ? patterns_.size() - 1 - next_ : next_;
      out.push_back(patterns_[i]);
      ++next_;
      ++emitted;
    }
    return emitted;
  }

 private:
  std::span<const BitPattern> patterns_;
  std::size_t next_ = 0;
  bool reversed_;
};

/// Width-erased per-worker handle to the simulator holding the current
/// block. Passed to CampaignBlock::ParallelFor bodies; each call simulates
/// against the block the runner loaded, with the partial-block mask applied
/// to detection results. Valid only inside the ParallelFor body.
class FaultView {
 public:
  virtual ~FaultView() = default;

  /// True iff any pattern of the block detects `fault` (masked).
  virtual bool DetectAny(const StuckAtFault& fault) = 0;

  /// Masked detection lanes of `fault`: Lanes() words, lane l bit k set iff
  /// pattern l*64+k of the block detects it. `out.size()` must be >= Lanes().
  virtual void DetectLanes(const StuckAtFault& fault,
                           std::span<PatternWord> out) = 0;

  /// Sparse output error of `fault` under the block: the nonzero (core
  /// output, lane) words of faulty XOR fault-free response, masked to the
  /// block fill (see FaultSimulatorT::OutputErrors). The span lives in the
  /// worker slot's scratch and is valid until the slot's next call.
  virtual std::span<const OutputError> OutputErrors(
      const StuckAtFault& fault) = 0;
};

/// Width-erased view of one simulated block, handed to sinks. Alive only
/// for the duration of CampaignSink::OnBlock.
class CampaignBlock {
 public:
  virtual ~CampaignBlock() = default;

  /// The block's patterns, in stream order.
  std::span<const BitPattern> Patterns() const { return patterns_; }
  /// Global stream index of Patterns()[0].
  std::uint64_t BaseIndex() const { return base_; }
  std::size_t Count() const { return patterns_.size(); }
  /// Lane words per value (the running segment's W; 1 during warm-up).
  virtual std::size_t Lanes() const = 0;
  /// How many of the block's patterns land in `lane`.
  std::size_t LaneCount(std::size_t lane) const {
    return LanePatternCount(Count(), lane);
  }

  // --- Tracked faults (runner-managed detect sweep + drop bookkeeping) ---
  // Entry i refers to the i-th *surviving* tracked fault; TrackedIndex maps
  // it back to the position in RunOptions::track.

  std::size_t TrackedCount() const { return survivors_->size(); }
  std::size_t TrackedIndex(std::size_t i) const { return (*survivors_)[i]; }
  /// Masked detection lanes of surviving tracked fault i (Lanes() words).
  virtual std::span<const PatternWord> TrackedDetect(std::size_t i) const = 0;
  bool TrackedDetected(std::size_t i) const {
    for (PatternWord w : TrackedDetect(i)) {
      if (w != 0) return true;
    }
    return false;
  }
  /// In-block index (lane*64 + bit) of the first pattern detecting tracked
  /// fault i, or -1 — the index a serial sweep would have reported first.
  int TrackedFirstDetect(std::size_t i) const {
    const auto lanes = TrackedDetect(i);
    for (std::size_t l = 0; l < lanes.size(); ++l) {
      if (lanes[l] != 0) {
        return static_cast<int>(l * 64) + std::countr_zero(lanes[l]);
      }
    }
    return -1;
  }

  /// Fault-free values of all core outputs under the block: Lanes()
  /// contiguous words per output (lane 0 first), in core-output order.
  virtual std::span<const PatternWord> GoodOutputLanes() = 0;

  /// Fault-partitioned parallel sweep against the loaded block: runs
  /// fn(i, view) for every i in [0, n) on the runner's worker slots. fn must
  /// only write state owned by index i; the per-index MISR / counter pattern
  /// of the legacy loops carries over unchanged.
  virtual void ParallelFor(
      std::size_t n,
      const std::function<void(std::size_t, FaultView&)>& fn) = 0;

 protected:
  CampaignBlock(std::span<const BitPattern> patterns, std::uint64_t base,
                const std::vector<std::size_t>* survivors)
      : patterns_(patterns), base_(base), survivors_(survivors) {}

 private:
  std::span<const BitPattern> patterns_;
  std::uint64_t base_;
  const std::vector<std::size_t>* survivors_;
};

/// Uniform campaign accounting, reported to sinks at the end of a run and
/// returned by CampaignRunner::Run.
struct CampaignStats {
  std::uint64_t patterns = 0;  ///< Patterns simulated (warm-up included).
  std::uint64_t blocks = 0;
  std::uint64_t warmup_patterns = 0;  ///< Leading patterns run at W = 1.
  std::uint64_t dropped = 0;    ///< Tracked faults dropped (drop mode only).
  std::size_t survivors = 0;    ///< Tracked faults still undropped at the end.
  double wall_seconds = 0.0;

  double PatternsPerSecond() const {
    return wall_seconds > 0.0 ? static_cast<double>(patterns) / wall_seconds
                              : 0.0;
  }
};

/// Consumer of simulated blocks. Sinks run on the calling thread, in
/// registration order, before the runner's drop merge for the block.
class CampaignSink {
 public:
  virtual ~CampaignSink() = default;
  /// Returns false to stop the campaign after this block (e.g. a coverage
  /// target was reached mid-stream).
  virtual bool OnBlock(CampaignBlock& block) = 0;
  virtual void OnEnd(const CampaignStats& stats) { (void)stats; }
};

/// Records the global stream index of each tracked fault's first detection:
/// `first_detect[TrackedIndex(i)] = BaseIndex() + TrackedFirstDetect(i)`.
/// Entries of never-detected faults keep their initial value. Combine with
/// drop mode so each fault is swept only until its first detection — the
/// coverage-curve builder of the profile generator and the drop scans of
/// atpg::tpg are exactly this sink.
class FirstDetectSink final : public CampaignSink {
 public:
  explicit FirstDetectSink(std::span<std::uint64_t> first_detect)
      : first_detect_(first_detect) {}

  bool OnBlock(CampaignBlock& block) override {
    for (std::size_t i = 0; i < block.TrackedCount(); ++i) {
      const int first = block.TrackedFirstDetect(i);
      if (first >= 0) {
        first_detect_[block.TrackedIndex(i)] =
            block.BaseIndex() + static_cast<std::uint64_t>(first);
      }
    }
    return true;
  }

 private:
  std::span<std::uint64_t> first_detect_;
};

struct CampaignConfig {
  /// Simulation block width W: W*64 patterns per sweep (W in
  /// {1, 2, 4, 8, 16}).
  std::size_t block_width = 4;
  /// Sweep parallelism: 1 = serial on the caller, 0 = full pool width.
  std::size_t threads = 0;
  /// Leading patterns of a warm-up-enabled run simulated at W = 1 (see
  /// RunOptions::warmup); drop-heavy random-phase heads drain faster narrow.
  std::uint64_t narrow_warmup_patterns = 0;
  /// FFR-collapse + dominator-cut detection (netlist::StructuralInfo) in
  /// the slot simulators. Bit-identical results either way; off is an
  /// ablation/validation knob.
  bool structural_shortcuts = true;
};

/// The streaming campaign kernel. A runner is bound to one netlist and one
/// (block_width, threads) configuration; its per-width simulator state is
/// built lazily on first use and reused across Run() calls, so repeated
/// campaigns (diagnosis queries, per-pattern ATPG drop scans, per-window
/// dictionary passes) pay no reconstruction cost. Not thread-safe: one
/// runner serves one caller at a time.
class CampaignRunner {
 public:
  struct RunOptions {
    /// Pattern budget; the source may dry up earlier.
    std::uint64_t max_patterns = UINT64_MAX;
    /// Faults whose masked detect blocks the runner computes (in parallel)
    /// for every block, exposed as TrackedDetect to sinks.
    std::span<const StuckAtFault> track = {};
    /// Drop tracked faults after their first detected block (serial merge in
    /// fault order — bit-identical to the serial drop loop). The campaign
    /// ends once every tracked fault is dropped.
    bool drop_detected = false;
    /// Run the configured narrow warm-up head at W = 1 before switching to
    /// the configured width. No-op when block_width == 1.
    bool warmup = false;
  };

  CampaignRunner(const netlist::Netlist& netlist, CampaignConfig config);
  ~CampaignRunner();

  CampaignStats Run(PatternSource& source,
                    std::span<CampaignSink* const> sinks,
                    const RunOptions& options);
  CampaignStats Run(PatternSource& source, CampaignSink& sink,
                    const RunOptions& options);
  CampaignStats Run(PatternSource& source, CampaignSink& sink);
  /// Sink-less run: drop accounting only (e.g. counting detected faults).
  CampaignStats Run(PatternSource& source, const RunOptions& options);

  const netlist::Netlist& Circuit() const { return netlist_; }
  const CampaignConfig& Config() const { return config_; }

 private:
  class Engine;
  template <std::size_t W>
  class EngineT;
  struct RunState;

  Engine& EngineFor(std::size_t width);

  const netlist::Netlist& netlist_;
  CampaignConfig config_;
  std::unique_ptr<Engine> wide_;    ///< Engine at config_.block_width.
  std::unique_ptr<Engine> narrow_;  ///< W = 1 warm-up engine (lazy).
};

}  // namespace bistdse::sim
