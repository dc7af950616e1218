// One island's front end of the design flow (paper Fig. 2): genotype ->
// SAT decode -> objective evaluation, behind an implementation-signature
// memo. dse::ExploreParallel builds one EvaluationEngine per island, inside
// the island's own pool task, and feeds it whole offspring generations
// through EvaluateBatch — the engine's one entry point.
//
// The engine owns the island's (stateful, single-threaded) SAT decoder and
// a plain memo: the decoder maps many genotypes to few distinct
// implementations, and objective evaluation is a pure function of the
// implementation. Nothing is shared between islands, so an island's memo
// hits depend only on its own seed.
//
// Determinism contract: for a fixed seed the produced objective vectors —
// and therefore the Pareto front — are bit-identical for every `threads`
// setting, because objective evaluation is pure and batch results are
// consumed in genotype order.
#pragma once

#include <cstdint>
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

class EvaluationEngine {
 public:
  /// One decoded + evaluated genotype.
  struct Evaluated {
    Objectives objectives;
    moea::ObjectiveVector vector;  ///< objectives.ToMinimizationVector().
    model::Implementation implementation;
  };

  /// Reads the decode validation, evaluation options, objective layout and
  /// `threads` of `config`. `spec`/`augmentation` must outlive the engine.
  EvaluationEngine(const model::Specification& spec,
                   const model::BistAugmentation& augmentation,
                   const ExplorationConfig& config);

  std::size_t GenotypeSize() const { return decoder_.GenotypeSize(); }
  const DecoderStats& Decoder() const { return decoder_.Stats(); }
  /// Evaluations answered from the memo so far.
  std::uint64_t CacheHits() const { return cache_hits_; }

  /// Decodes the genotypes in order (the decoder is stateful), then
  /// evaluates the distinct implementations the memo does not hold yet — in
  /// parallel on the shared util::ThreadPool unless `threads` is 1.
  /// results[i] corresponds to genotypes[i]; nullopt when its decode is
  /// infeasible. A batch-internal repeat of a new implementation is a memo
  /// hit, exactly as if the genotypes were evaluated one by one.
  std::vector<std::optional<Evaluated>> EvaluateBatch(
      std::span<const moea::Genotype> genotypes);

 private:
  const model::Specification& spec_;
  const model::BistAugmentation& augmentation_;
  EvaluationOptions options_;
  bool include_transition_quality_;
  std::size_t threads_;
  SatDecoder decoder_;
  std::unordered_map<std::uint64_t, Objectives> memo_;
  std::uint64_t cache_hits_ = 0;
};

}  // namespace bistdse::dse
