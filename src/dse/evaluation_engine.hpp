// One island's front end of the design flow (paper Fig. 2): genotype ->
// SAT decode -> objective evaluation, behind an implementation-signature
// memo. dse::ExploreParallel builds one EvaluationEngine per island, inside
// the island's own pool task, and feeds it whole offspring generations
// through EvaluateBatch — the engine's one entry point.
//
// The engine builds the island's encoded problem once and decodes on
// kDecoderShards SAT decoders over it, each with its own solver. A plain
// memo sits behind them: the decoders map many genotypes to few distinct
// implementations, and objective evaluation is a pure function of the
// implementation. Nothing is shared between islands, so an island's memo
// hits depend only on its own seed.
//
// Determinism contract: for a fixed seed the produced objective vectors —
// and therefore the Pareto front — are bit-identical for every `threads`
// setting. A decode returns the lexicographically first model under the
// genotype's static order whatever its solver learned before (PERF.md,
// "Decode canonicity"), so the shard that decodes a genotype cannot change
// its implementation; objective evaluation is pure; and batch results are
// consumed in genotype order. The partition of a batch over the shards
// depends only on the batch size, so the decoder counters depend on
// nothing else either.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "dse/decoder.hpp"
#include "dse/exploration.hpp"
#include "dse/objectives.hpp"
#include "moea/genotype.hpp"

namespace bistdse::dse {

/// FNV-1a content hash of a decoded implementation (allocation + binding +
/// routing). Objective evaluation is a pure function of the implementation,
/// so equal signatures share one memoized evaluation.
std::uint64_t ImplementationSignature(const model::Implementation& impl);

/// SAT decoders per island. EvaluateBatch splits every batch into this many
/// contiguous ranges and decodes each on its own solver.
inline constexpr std::size_t kDecoderShards = 4;

class EvaluationEngine {
 public:
  /// One decoded + evaluated genotype.
  struct Evaluated {
    Objectives objectives;
    moea::ObjectiveVector vector;  ///< objectives.ToMinimizationVector().
    /// The decoded implementation, in the engine's slot for this genotype:
    /// valid until the next EvaluateBatch call. The caller may move from
    /// it or swap another implementation in: the slot's next decode
    /// overwrites whatever it holds.
    model::Implementation* implementation = nullptr;
  };

  /// Reads the decode validation, evaluation options, objective layout and
  /// `threads` of `config`. `spec`/`augmentation` must outlive the engine.
  EvaluationEngine(const model::Specification& spec,
                   const model::BistAugmentation& augmentation,
                   const ExplorationConfig& config);

  std::size_t GenotypeSize() const { return shards_.front()->GenotypeSize(); }
  /// The shards' decoder statistics, summed.
  DecoderStats Decoder() const;
  /// Evaluations answered from the memo so far.
  std::uint64_t CacheHits() const { return cache_hits_; }

  /// Decodes and signs the genotypes on the shards — shard s takes the s-th
  /// of kDecoderShards contiguous ranges, up to `threads` shards at once on
  /// the shared util::ThreadPool — then resolves the signatures against the
  /// memo in genotype order, evaluates the distinct implementations the memo
  /// does not hold yet on the pool, and assembles the results in order.
  /// results[i] corresponds to genotypes[i]; nullopt when its decode is
  /// infeasible. A batch-internal repeat of a new implementation is a memo
  /// hit, exactly as if the genotypes were evaluated one by one. When
  /// decodes throw, the exception of the lowest genotype index is rethrown.
  std::vector<std::optional<Evaluated>> EvaluateBatch(
      std::span<const moea::Genotype> genotypes);

 private:
  const model::Specification& spec_;
  const model::BistAugmentation& augmentation_;
  EvaluationOptions options_;
  bool include_transition_quality_;
  std::size_t threads_;
  /// One genotype's decode, kept across batches so that each decode
  /// rewrites the buffers of an earlier one instead of allocating anew.
  struct Slot {
    model::Implementation impl;
    bool feasible = false;
    std::uint64_t signature = 0;
    const Objectives* objectives = nullptr;  ///< The memo entry.
  };

  std::vector<std::unique_ptr<SatDecoder>> shards_;
  std::vector<Slot> slots_;
  std::unordered_map<std::uint64_t, Objectives> memo_;
  std::uint64_t cache_hits_ = 0;
};

}  // namespace bistdse::dse
