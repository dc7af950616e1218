// Event-driven parallel-pattern single-fault propagation (PPSFP).
//
// Usage: load a block of up to W*64 patterns with SetPatternBlock(), then
// query DetectBlock(fault) for each still-undetected fault. Bit k of lane l
// of the returned block is 1 iff pattern l*64+k of the block detects the
// fault at a primary output or a flop D input (PPO). Callers implement
// fault dropping by removing faults whose block is non-zero.
//
// Structural shortcuts (on by default, netlist::StructuralInfo):
//   * FFR collapse — a fault effect inside a fanout-free region can only
//     leave through the region's stem, so DetectBlock() walks the single-
//     fanout chain to the stem with plain gate re-evaluations (no event
//     queue) and finishes with one AND against the stem's observability.
//   * Stem observability cache — the stem's observability under the current
//     block is a full flip propagation, computed at most once per stem per
//     pattern block (keyed on the good machine's Generation()) and shared
//     by every fault in the region.
//   * Dominator cut — during a flip propagation, when the event frontier
//     collapses onto a single pending node whose observability is already
//     cached, the remaining propagation is exactly `diff & obs` and the
//     wave stops there. Warming the cache along the immediate-post-dominator
//     chain before propagating makes these cuts hit in practice.
// All three are exact per pattern: every bit position of a block is an
// independent simulation, so the returned blocks are bit-identical to the
// unshortcut event-driven propagation (tests/test_structure.cpp asserts
// this on seeded random netlists).
//
// Response consumers (MISR signatures) do not need the faulty response
// itself, only where it differs from the fault-free one: OutputErrors()
// returns that difference sparsely — the nonzero (core output, lane) words
// of faulty XOR good, read off the propagation's touched set.
// FaultyResponse() keeps the dense response as a reference for tests.
//
// `FaultSimulator` (= FaultSimulatorT<1>) is the classic 64-way simulator;
// its DetectWord()/FaultyResponse() results are unchanged. A wide block is
// equivalent to W sequential narrow blocks: every lane carries exactly the
// detect word the narrow path would have produced for that 64-pattern slice.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "sim/fault.hpp"
#include "sim/logic_sim.hpp"
#include "sim/pattern_set.hpp"

namespace bistdse::sim {

/// One nonzero word of a fault's output error (faulty XOR fault-free
/// response): bit k of `bits` is set iff pattern lane*64+k of the block
/// sees a flipped value at core output `output`.
struct OutputError {
  std::uint32_t output;  ///< Position in Netlist::CoreOutputs().
  std::uint32_t lane;
  PatternWord bits;
};

template <std::size_t W>
class FaultSimulatorT {
 public:
  using Word = WideWord<W>;
  static constexpr std::size_t kLanes = W;

  /// `structural_shortcuts` selects the FFR/dominator detection path; the
  /// returned blocks are bit-identical either way (keep it on — `false`
  /// exists for A/B validation and perf ablation).
  explicit FaultSimulatorT(const netlist::Netlist& netlist,
                           bool structural_shortcuts = true);
  FaultSimulatorT(FaultSimulatorT&&) = default;

  /// Cheap per-thread clone for fault-partitioned parallel sweeps: shares
  /// `parent`'s netlist and good-machine block read-only and only allocates
  /// its own propagation scratch (including its own stem-observability
  /// cache). The parent must outlive the clone and owns the pattern block —
  /// SetPatternBlock() on a clone throws; the clone sees whatever block the
  /// parent loaded last.
  static FaultSimulatorT WorkerClone(const FaultSimulatorT& parent);

  /// Simulates the fault-free circuit for a block of patterns (W words per
  /// core input, lane 0 first — see LogicSimulatorT<W>::Simulate).
  void SetPatternBlock(std::span<const PatternWord> core_input_words);

  /// Detection block of `fault` under the current block: one detect word
  /// per lane.
  Word DetectBlock(const StuckAtFault& fault);

  /// Lane-0 detection word — the full detection result at W = 1.
  PatternWord DetectWord(const StuckAtFault& fault) {
    return DetectBlock(fault).lane[0];
  }

  /// Sparse output error of `fault` under the current block: one entry per
  /// nonzero (core output, lane) word of faulty XOR good, lane bits outside
  /// `mask` cleared, in no particular order. A core output position gets
  /// its own entry even when one node drives several positions; a flop
  /// D-branch fault errs only at that flop's PPO position. Always one event
  /// propagation (a shortcut detect pre-check measured slower: it mostly
  /// adds stem-observability work for blocks that detect the fault anyway).
  /// The span points into this simulator's scratch and is valid until its
  /// next OutputErrors() call.
  std::span<const OutputError> OutputErrors(const StuckAtFault& fault,
                                            const Word& mask);

  /// Faulty response at all core outputs under the current block, W
  /// contiguous words (lane 0 first) per output — the same layout as
  /// LogicSimulatorT<W>::CoreOutputValues(). Always a full propagation with
  /// no shortcut; kept as the dense reference the sparse OutputErrors() is
  /// tested against.
  std::vector<PatternWord> FaultyResponse(const StuckAtFault& fault);

  bool StructuralShortcuts() const { return shortcuts_; }

  const LogicSimulatorT<W>& Good() const { return *good_; }
  const netlist::Netlist& Circuit() const { return netlist_; }

 private:
  FaultSimulatorT(const netlist::Netlist& netlist,
                  const LogicSimulatorT<W>* shared_good,
                  bool structural_shortcuts);

  /// Faulty value at the fault site under the current block (gate output
  /// after injecting a stem or pin fault).
  Word SiteValue(const StuckAtFault& fault);

  /// Propagates the fault effect and returns the detection block; leaves
  /// faulty values in fval_/touched_ (caller must call Reset()).
  Word Propagate(const StuckAtFault& fault);

  /// FFR-collapsed detection: chain-walk to the region stem, then AND with
  /// the cached stem observability. Bit-identical to Propagate()+Reset().
  Word DetectShortcut(const StuckAtFault& fault);

  /// Observability of `node` under the current block: bit p is 1 iff
  /// flipping `node`'s value on pattern p changes some core output. Cached
  /// per good-machine generation; computes along the ipostdom chain so the
  /// flip propagations can cut at their dominators.
  const Word& ObsOf(netlist::NodeId node);

  /// Full flip propagation for the observability cache, with the dominator
  /// frontier-collapse cut.
  Word PropagateFlip(netlist::NodeId node);

  /// Re-evaluates `id` with `node`'s value replaced by `val` and all other
  /// fanins at good values (valid on single-fanout chains where the fault
  /// effect cannot reach any side fanin).
  Word EvalWithOverride(netlist::NodeId id, netlist::NodeId node,
                        const Word& val);

  void Reset();

  const netlist::Netlist& netlist_;
  const netlist::StructuralInfo* structure_;
  std::unique_ptr<LogicSimulatorT<W>> good_owned_;  ///< Null in worker clones.
  const LogicSimulatorT<W>* good_;                  ///< Owned or the parent's.
  bool shortcuts_;
  std::vector<Word> fval_;
  std::vector<std::uint8_t> is_touched_;
  std::vector<netlist::NodeId> touched_;
  std::vector<std::uint32_t> observed_count_;  // #observation points per node
  // Core-output positions read from node n: output_pos_[output_begin_[n] ..
  // output_begin_[n + 1]). ppo_pos_[f] is the PPO position of flop node f.
  std::vector<std::uint32_t> output_begin_;
  std::vector<std::uint32_t> output_pos_;
  std::vector<std::uint32_t> ppo_pos_;
  std::vector<OutputError> errors_;  ///< OutputErrors() scratch.
  std::vector<std::vector<netlist::NodeId>> level_buckets_;
  std::vector<std::uint8_t> in_queue_;
  // Member scratch (hoisted out of the per-fault hot path so propagation
  // performs no heap allocation after warm-up).
  std::vector<const Word*> fanin_ptrs_;
  std::vector<Word> site_vals_;
  std::vector<netlist::NodeId> obs_chain_;
  // Stem observability cache, valid while obs_epoch_[n] == good_->Generation().
  std::vector<Word> obs_;
  std::vector<std::uint64_t> obs_epoch_;
};

extern template class FaultSimulatorT<1>;
extern template class FaultSimulatorT<2>;
extern template class FaultSimulatorT<4>;
extern template class FaultSimulatorT<8>;
extern template class FaultSimulatorT<16>;

/// The classic 64-pattern fault simulator — unchanged semantics.
using FaultSimulator = FaultSimulatorT<1>;

/// Fraction bookkeeping helper used across the library: how many of
/// `faults` are detected by `patterns` (with fault dropping). `block_width`
/// selects the wide datapath (W in {1, 2, 4, 8, 16} — W*64 patterns per
/// sweep); the count is identical for every width.
std::size_t CountDetectedFaults(const netlist::Netlist& netlist,
                                std::span<const BitPattern> patterns,
                                std::span<const StuckAtFault> faults,
                                std::size_t block_width = 1);

}  // namespace bistdse::sim
