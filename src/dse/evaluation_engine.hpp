// The shared genotype -> SAT decode -> objective evaluation layer of the
// design flow (paper Fig. 2), factored out of the exploration drivers so
// every consumer (serial Explorer, island-parallel exploration, memetic
// refinement, benches, the CLI) runs the *same* pipeline:
//
//   * ObjectiveStage — one composable piece of the objective evaluation
//     (test quality Eq. 4, shut-off time Eq. 5 over the Eq.-1 bus loads,
//     monetary cost, optional transition quality, optional plug-in stages
//     such as the frame-accurate session verdict in src/net). The engine's
//     stage list determines both which Objectives fields are filled and the
//     layout of the minimization vector handed to the MOEA.
//   * EvaluationEngine — owns the stage list and a thread-safe,
//     content-addressed implementation-signature memo shared by all its
//     sessions (the SAT decoder maps many genotypes to few distinct
//     implementations; islands used to rebuild this cache per island).
//   * EvaluationEngine::Session — one single-threaded SAT decoder bound to
//     the shared engine. Each island/exploration drives its own session;
//     batched evaluation decodes sequentially (the decoder is stateful) and
//     evaluates distinct uncached implementations in parallel on the shared
//     util::ThreadPool.
//
// Determinism contract (mirrors the fault-simulation layer of PR 1): for a
// fixed seed the produced objective vectors — and therefore the Pareto
// front — are bit-identical for every `threads` setting, because stages are
// pure functions of the implementation and batch results are consumed in
// genotype order.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "can/message.hpp"
#include "dse/decoder.hpp"
#include "dse/objectives.hpp"
#include "moea/genotype.hpp"
#include "util/concurrent_memo.hpp"

namespace bistdse::dse {

/// Shared per-implementation intermediates, computed once and read by every
/// stage: task placements, the functional TX message sets of Eq. (1), and
/// the placement/transfer timing of each BIST program.
struct EvaluationContext {
  EvaluationContext(const model::Specification& spec,
                    const model::BistAugmentation& augmentation,
                    const model::Implementation& impl,
                    const EvaluationOptions& options);

  const model::Specification& spec;
  const model::BistAugmentation& augmentation;
  const model::Implementation& impl;
  const EvaluationOptions& options;

  /// Resource of every task, kInvalidId when unbound
  /// (Implementation::BoundResources).
  std::vector<model::ResourceId> bound_at;
  /// Functional TX messages of every resource, grouped by resource in
  /// message-id order; only payload and period are filled. TxMessages(r)
  /// is tx_messages[tx_begin[r], tx_begin[r + 1]).
  std::vector<can::CanMessage> tx_messages;
  std::vector<std::uint32_t> tx_begin;

  /// Functional TX messages of resource `r` — the set I of Eq. (1).
  std::span<const can::CanMessage> TxMessages(model::ResourceId r) const {
    return std::span(tx_messages)
        .subspan(tx_begin[r], tx_begin[r + 1] - tx_begin[r]);
  }

  /// Placement of one BIST program (in augmentation iteration order, which
  /// is deterministic — programs_by_ecu is an ordered map).
  struct ProgramPlacement {
    const model::BistProgram* program = nullptr;
    model::ResourceId ecu = model::kInvalidId;
    bool test_bound = false;
    bool data_bound = false;
    model::ResourceId data_at = model::kInvalidId;  ///< Valid if data_bound.
    /// Eq. (1) mirrored-transfer time (or its CAN FD variant); 0 for local
    /// storage, +inf when the ECU sends no functional payload to ride.
    double transfer_ms = 0.0;
    /// l(b) + transfer; 0 unless the test task is bound.
    double session_ms = 0.0;
  };
  std::vector<ProgramPlacement> programs;

  std::uint32_t ecus_allocated = 0;
};

/// One composable piece of the objective evaluation. Stages are stateless
/// and must be pure functions of the context; field writes into Objectives
/// must be idempotent assignments (never accumulations across stages), so a
/// stage list stays order-insensitive in the fields it fills.
class ObjectiveStage {
 public:
  virtual ~ObjectiveStage() = default;

  virtual std::string_view Name() const = 0;
  /// Dimensions this stage contributes to the minimization vector.
  virtual std::size_t Dimensions() const = 0;
  /// Fills this stage's Objectives fields from the shared context.
  virtual void Evaluate(const EvaluationContext& context,
                        Objectives& out) const = 0;
  /// Appends this stage's minimized dimensions (in a fixed order).
  virtual void AppendMinimization(const Objectives& objectives,
                                  moea::ObjectiveVector& out) const = 0;
};

/// Built-in stages of the paper's objective space.
std::shared_ptr<const ObjectiveStage> MakeTestQualityStage();       ///< Eq. 4
std::shared_ptr<const ObjectiveStage> MakeTransitionQualityStage(); ///< Eq.-4 TDF analog
std::shared_ptr<const ObjectiveStage> MakeShutoffStage();           ///< Eq. 5 over Eq. 1
std::shared_ptr<const ObjectiveStage> MakeMonetaryCostStage();      ///< footnote-1 costs

/// The canonical stage lists: {quality, shut-off, cost}, and with
/// `include_transition_quality` the dual-fault-model layout {quality,
/// transition quality, shut-off, cost} — both matching the historical
/// Objectives::ToMinimizationVector(bool) layouts.
StageList DefaultStages(bool include_transition_quality = false);

/// Runs `stages` over one implementation (no memo involved).
Objectives EvaluateWithStages(const model::Specification& spec,
                              const model::BistAugmentation& augmentation,
                              const model::Implementation& impl,
                              const EvaluationOptions& options,
                              const StageList& stages);

/// FNV-1a content hash of a decoded implementation (allocation + binding +
/// routing). Objective evaluation is a pure function of the implementation,
/// so equal signatures share one memoized evaluation.
std::uint64_t ImplementationSignature(const model::Implementation& impl);

struct EvaluationEngineConfig {
  /// Validate every decoded implementation against the full constraint
  /// system (Eqs. 2a-2h, 3a, 3b). Costs ~10 % throughput; throws on the
  /// first violation, so it doubles as an internal consistency check.
  bool validate_each_decode = false;
  /// Parallelism of batched objective evaluation on the shared
  /// util::ThreadPool. 1 = strictly serial (the bit-reference path);
  /// 0 = one chunk per pool worker. Results are identical for any value.
  std::size_t threads = 1;
  /// Objective-evaluation options (e.g. CAN FD mirrored downloads) passed to
  /// every stage via the context.
  EvaluationOptions evaluation;
  /// Objective pipeline; empty selects DefaultStages(false).
  StageList stages;
};

class EvaluationEngine {
 public:
  /// One decoded + evaluated genotype.
  struct Evaluated {
    Objectives objectives;
    moea::ObjectiveVector vector;  ///< objectives through the stage list.
    model::Implementation implementation;
    bool cache_hit = false;  ///< Objectives answered from the shared memo.
  };

  /// `spec`/`augmentation` must outlive the engine (and its sessions).
  EvaluationEngine(const model::Specification& spec,
                   const model::BistAugmentation& augmentation,
                   EvaluationEngineConfig config = {});

  const model::Specification& Spec() const { return spec_; }
  const model::BistAugmentation& Augmentation() const { return augmentation_; }
  const EvaluationEngineConfig& Config() const { return config_; }
  const StageList& Stages() const { return config_.stages; }

  /// Total dimensions of the minimization vector (sum over stages).
  std::size_t ObjectiveDimensions() const;

  /// Stage-pipeline evaluation of one implementation, bypassing the memo
  /// (used for externally produced implementations, e.g. refinement moves).
  Objectives Evaluate(const model::Implementation& impl) const;
  /// Memoized variant keyed by ImplementationSignature().
  Objectives EvaluateCached(const model::Implementation& impl,
                            bool* cache_hit = nullptr);

  moea::ObjectiveVector Minimize(const Objectives& objectives) const {
    return objectives.ToMinimizationVector(config_.stages);
  }

  /// Memo hits across every session of this engine.
  std::uint64_t CacheHits() const { return cache_hits_.load(); }
  /// Distinct implementations evaluated so far.
  std::size_t CacheSize() const { return memo_.Size(); }

  /// One exploration's decode + evaluate front end: owns a (stateful,
  /// single-threaded) SAT decoder, shares the engine's memo and stages.
  /// Create one session per island/thread; a session itself must not be
  /// used concurrently.
  class Session {
   public:
    explicit Session(EvaluationEngine& engine);

    std::size_t GenotypeSize() const { return decoder_.GenotypeSize(); }
    const DecoderStats& Decoder() const { return decoder_.Stats(); }
    /// Memo hits scored by this session.
    std::uint64_t CacheHits() const { return cache_hits_; }
    EvaluationEngine& Engine() { return engine_; }

    /// Decodes + evaluates one genotype; nullopt when the decode is
    /// infeasible.
    std::optional<Evaluated> Evaluate(const moea::Genotype& genotype);

    /// Batched population evaluation: decodes sequentially, then evaluates
    /// the distinct uncached implementations in parallel (engine threads
    /// permitting). results[i] corresponds to genotypes[i]; the observable
    /// results are bit-identical to calling Evaluate() in a loop.
    std::vector<std::optional<Evaluated>> EvaluateBatch(
        std::span<const moea::Genotype> genotypes);

   private:
    EvaluationEngine& engine_;
    SatDecoder decoder_;
    std::uint64_t cache_hits_ = 0;
  };

  Session NewSession() { return Session(*this); }

 private:
  friend class Session;

  const model::Specification& spec_;
  const model::BistAugmentation& augmentation_;
  EvaluationEngineConfig config_;
  util::ConcurrentMemo<std::uint64_t, Objectives> memo_;
  std::atomic<std::uint64_t> cache_hits_{0};
};

}  // namespace bistdse::dse
