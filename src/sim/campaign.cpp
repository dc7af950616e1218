#include "sim/campaign.hpp"

#include <algorithm>
#include <chrono>
#include <numeric>

namespace bistdse::sim {

/// Mutable state threaded through the warm-up and wide segments of one
/// campaign. The narrow and wide engines advance the same stream position
/// and survivor set, so the warm-up/wide split is invisible to sinks.
struct CampaignRunner::RunState {
  RunState(PatternSource& source_in, std::span<CampaignSink* const> sinks_in,
           const RunOptions& options_in)
      : source(source_in), sinks(sinks_in), options(options_in) {}

  PatternSource& source;
  std::span<CampaignSink* const> sinks;
  const RunOptions& options;
  std::uint64_t next_index = 0;
  bool stop = false;       ///< A sink returned false.
  bool exhausted = false;  ///< The source returned a short read.
  std::vector<std::size_t> survivors;  ///< Indices into options.track.
  std::vector<BitPattern> patterns;    ///< Per-block scratch.
  CampaignStats stats;
};

class CampaignRunner::Engine {
 public:
  virtual ~Engine() = default;
  /// Streams blocks until the global pattern index reaches `end_index`, the
  /// source dries up, a sink stops the campaign, or (in drop mode) every
  /// tracked fault is dropped.
  virtual void RunSegment(RunState& st, std::uint64_t end_index) = 0;
};

template <std::size_t W>
class CampaignRunner::EngineT final : public Engine {
 public:
  EngineT(const netlist::Netlist& netlist, std::size_t threads,
          bool structural_shortcuts)
      : psim_(netlist, threads, nullptr, structural_shortcuts) {}

  void RunSegment(RunState& st, std::uint64_t end_index) override {
    const RunOptions& opts = st.options;
    const WideWord<W> zero = WideWord<W>::Zero();
    while (!st.stop && st.next_index < end_index) {
      if (opts.drop_detected && !opts.track.empty() && st.survivors.empty()) {
        break;
      }
      const std::size_t want = static_cast<std::size_t>(
          std::min<std::uint64_t>(W * 64, end_index - st.next_index));
      st.patterns.clear();
      const std::size_t got = st.source.Fill(want, st.patterns);
      if (got == 0) {
        st.exhausted = true;
        break;
      }
      const std::vector<PatternWord> words = PackPatternBlockWide(
          st.patterns, 0, got, st.patterns[0].size(), W);
      psim_.SetPatternBlock(words);
      const WideWord<W> mask = BlockMaskWide<W>(got);

      detect_.assign(st.survivors.size(), zero);
      if (!st.survivors.empty()) {
        const std::span<const StuckAtFault> track = opts.track;
        WideWord<W>* detect = detect_.data();
        const std::size_t* surv = st.survivors.data();
        psim_.ForEachFault(
            st.survivors.size(),
            [&](std::size_t i, FaultSimulatorT<W>& sim) {
              detect[i] = sim.DetectBlock(track[surv[i]]) & mask;
            });
      }

      BlockT block(*this, st.patterns, st.next_index, &st.survivors, mask);
      for (CampaignSink* sink : st.sinks) {
        if (!sink->OnBlock(block)) st.stop = true;
      }

      if (opts.drop_detected && !st.survivors.empty()) {
        // Serial merge in fault-index order: identical drop sets and counts
        // for every thread count.
        std::size_t kept = 0;
        for (std::size_t i = 0; i < st.survivors.size(); ++i) {
          if (detect_[i].Any()) {
            ++st.stats.dropped;
          } else {
            st.survivors[kept++] = st.survivors[i];
          }
        }
        st.survivors.resize(kept);
      }

      st.next_index += got;
      st.stats.patterns += got;
      ++st.stats.blocks;
      if (got < want) {
        st.exhausted = true;
        break;
      }
    }
  }

 private:
  class ViewT final : public FaultView {
   public:
    ViewT(FaultSimulatorT<W>& sim, const WideWord<W>& mask)
        : sim_(sim), mask_(mask) {}

    bool DetectAny(const StuckAtFault& fault) override {
      return (sim_.DetectBlock(fault) & mask_).Any();
    }

    void DetectLanes(const StuckAtFault& fault,
                     std::span<PatternWord> out) override {
      const WideWord<W> block = sim_.DetectBlock(fault) & mask_;
      block.Store(out.data());
    }

    std::span<const OutputError> OutputErrors(
        const StuckAtFault& fault) override {
      return sim_.OutputErrors(fault, mask_);
    }

   private:
    FaultSimulatorT<W>& sim_;
    const WideWord<W>& mask_;
  };

  class BlockT final : public CampaignBlock {
   public:
    BlockT(EngineT& engine, std::span<const BitPattern> patterns,
           std::uint64_t base, const std::vector<std::size_t>* survivors,
           const WideWord<W>& mask)
        : CampaignBlock(patterns, base, survivors),
          engine_(engine),
          mask_(mask) {}

    std::size_t Lanes() const override { return W; }

    std::span<const PatternWord> TrackedDetect(std::size_t i) const override {
      return {engine_.detect_[i].lane, W};
    }

    std::span<const PatternWord> GoodOutputLanes() override {
      if (!good_valid_) {
        good_ = engine_.psim_.Good().CoreOutputValues();
        good_valid_ = true;
      }
      return good_;
    }

    void ParallelFor(
        std::size_t n,
        const std::function<void(std::size_t, FaultView&)>& fn) override {
      const WideWord<W>& mask = mask_;
      engine_.psim_.ForEachFault(
          n, [&](std::size_t i, FaultSimulatorT<W>& sim) {
            ViewT view(sim, mask);
            fn(i, view);
          });
    }

   private:
    EngineT& engine_;
    const WideWord<W>& mask_;
    std::vector<PatternWord> good_;
    bool good_valid_ = false;
  };

  ParallelFaultSimulatorT<W> psim_;
  std::vector<WideWord<W>> detect_;  ///< Per-survivor masked detect blocks.
};

CampaignRunner::CampaignRunner(const netlist::Netlist& netlist,
                               CampaignConfig config)
    : netlist_(netlist), config_(config) {
  DispatchBlockWidth(config_.block_width, [](auto) {});  // Validate eagerly.
}

CampaignRunner::~CampaignRunner() = default;

CampaignRunner::Engine& CampaignRunner::EngineFor(std::size_t width) {
  std::unique_ptr<Engine>& slot =
      width == config_.block_width ? wide_ : narrow_;
  if (!slot) {
    DispatchBlockWidth(width, [&](auto w) {
      slot = std::make_unique<EngineT<decltype(w)::value>>(
          netlist_, config_.threads, config_.structural_shortcuts);
    });
  }
  return *slot;
}

CampaignStats CampaignRunner::Run(PatternSource& source,
                                  std::span<CampaignSink* const> sinks,
                                  const RunOptions& options) {
  const auto t0 = std::chrono::steady_clock::now();
  RunState st{source, sinks, options};
  st.survivors.resize(options.track.size());
  std::iota(st.survivors.begin(), st.survivors.end(), std::size_t{0});

  if (config_.block_width > 1 && options.warmup &&
      config_.narrow_warmup_patterns > 0) {
    const std::uint64_t head = std::min<std::uint64_t>(
        config_.narrow_warmup_patterns, options.max_patterns);
    EngineFor(1).RunSegment(st, head);
    st.stats.warmup_patterns = st.stats.patterns;
  }
  if (!st.stop && !st.exhausted) {
    EngineFor(config_.block_width).RunSegment(st, options.max_patterns);
  }

  st.stats.survivors = st.survivors.size();
  st.stats.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  for (CampaignSink* sink : sinks) sink->OnEnd(st.stats);
  return st.stats;
}

CampaignStats CampaignRunner::Run(PatternSource& source, CampaignSink& sink,
                                  const RunOptions& options) {
  CampaignSink* const sinks[] = {&sink};
  return Run(source, std::span<CampaignSink* const>(sinks), options);
}

CampaignStats CampaignRunner::Run(PatternSource& source, CampaignSink& sink) {
  return Run(source, sink, RunOptions{});
}

CampaignStats CampaignRunner::Run(PatternSource& source,
                                  const RunOptions& options) {
  return Run(source, std::span<CampaignSink* const>(), options);
}

// The fault-count helpers declared in fault_sim.hpp / parallel_fault_sim.hpp
// are thin campaigns: a stored source, drop mode, and the drop counter.

std::size_t ParallelCountDetectedFaults(const netlist::Netlist& netlist,
                                        std::span<const BitPattern> patterns,
                                        std::span<const StuckAtFault> faults,
                                        std::size_t threads,
                                        std::size_t block_width) {
  CampaignRunner runner(netlist,
                        {.block_width = block_width, .threads = threads});
  StoredPatternSource source(patterns);
  const CampaignStats stats = runner.Run(
      source, CampaignRunner::RunOptions{.track = faults,
                                         .drop_detected = true});
  return static_cast<std::size_t>(stats.dropped);
}

std::size_t CountDetectedFaults(const netlist::Netlist& netlist,
                                std::span<const BitPattern> patterns,
                                std::span<const StuckAtFault> faults,
                                std::size_t block_width) {
  return ParallelCountDetectedFaults(netlist, patterns, faults,
                                     /*threads=*/1, block_width);
}

}  // namespace bistdse::sim
