#include "dse/evaluation_engine.hpp"

#include <algorithm>
#include <array>
#include <exception>

#include "util/thread_pool.hpp"

namespace bistdse::dse {

std::uint64_t ImplementationSignature(const model::Implementation& impl) {
  std::uint64_t h = 14695981039346656037ull;
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  mix(impl.allocation.size());
  for (const bool a : impl.allocation) mix(a);
  mix(impl.binding.size());
  for (const std::size_t b : impl.binding) mix(b);
  mix(impl.routing.size());
  for (const auto& [msg, path] : impl.routing) {
    mix(msg);
    mix(path.size());
    for (const model::ResourceId r : path) mix(r);
  }
  return h;
}

namespace {

/// Genotypes [first, last) of shard `s` in a batch of `n`: an even split
/// with the remainder spread over the leading shards.
std::pair<std::size_t, std::size_t> ShardRange(std::size_t s, std::size_t n) {
  const std::size_t base = n / kDecoderShards;
  const std::size_t extra = n % kDecoderShards;
  const std::size_t first = s * base + std::min(s, extra);
  return {first, first + base + (s < extra ? 1 : 0)};
}

}  // namespace

EvaluationEngine::EvaluationEngine(const model::Specification& spec,
                                   const model::BistAugmentation& augmentation,
                                   const ExplorationConfig& config)
    : spec_(spec),
      augmentation_(augmentation),
      options_(config.evaluation),
      include_transition_quality_(config.include_transition_quality),
      threads_(config.threads) {
  const auto problem =
      std::make_shared<const EncodedProblem>(spec, augmentation);
  shards_.reserve(kDecoderShards);
  for (std::size_t s = 0; s < kDecoderShards; ++s) {
    shards_.push_back(
        std::make_unique<SatDecoder>(problem, config.validate_each_decode));
  }
}

DecoderStats EvaluationEngine::Decoder() const {
  DecoderStats total;
  for (const auto& shard : shards_) total.MergeFrom(shard->Stats());
  return total;
}

std::vector<std::optional<EvaluationEngine::Evaluated>>
EvaluationEngine::EvaluateBatch(std::span<const moea::Genotype> genotypes) {
  const std::size_t n = genotypes.size();
  if (n == 0) return {};
  if (slots_.size() < n) slots_.resize(n);
  util::ThreadPool& pool = util::ThreadPool::Global();

  // Phase 1 (shards in parallel): decode and sign. Shard s owns its range
  // and its solver, decodes into the range's slots, and stops at its first
  // exception.
  std::array<std::exception_ptr, kDecoderShards> errors;
  pool.ParallelFor(
      0, kDecoderShards, threads_,
      [&](std::size_t begin, std::size_t end, std::size_t /*slot*/) {
        for (std::size_t s = begin; s < end; ++s) {
          const auto [first, last] = ShardRange(s, n);
          try {
            for (std::size_t i = first; i < last; ++i) {
              Slot& slot = slots_[i];
              slot.feasible = shards_[s]->DecodeInto(genotypes[i], slot.impl);
              if (slot.feasible) {
                slot.signature = ImplementationSignature(slot.impl);
              }
            }
          } catch (...) {
            errors[s] = std::current_exception();
          }
        }
      });
  // The ranges ascend with the shard index, so the first error found is the
  // one of the lowest genotype index, whatever finished first.
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }

  // Phase 2 (sequential, genotype order): resolve the memo. The first
  // occurrence of a new signature reserves its memo entry and becomes an
  // evaluation job, so a later repeat in the same batch is a hit, as in
  // one-by-one evaluation. Memo entries are nodes, so the pointers survive
  // rehashing.
  struct Job {
    const model::Implementation* impl;
    Objectives* objectives;
  };
  std::vector<Job> jobs;
  for (std::size_t i = 0; i < n; ++i) {
    Slot& slot = slots_[i];
    if (!slot.feasible) continue;
    const auto [entry, inserted] = memo_.try_emplace(slot.signature);
    slot.objectives = &entry->second;
    if (inserted) {
      jobs.push_back({&slot.impl, &entry->second});
    } else {
      ++cache_hits_;
    }
  }

  // Phase 3: evaluate the new implementations on the pool — pure functions
  // writing distinct memo entries, so chunk order cannot change any value.
  pool.ParallelFor(
      0, jobs.size(), threads_,
      [&](std::size_t begin, std::size_t end, std::size_t /*slot*/) {
        for (std::size_t j = begin; j < end; ++j) {
          *jobs[j].objectives = EvaluateImplementation(
              spec_, augmentation_, *jobs[j].impl, options_);
        }
      });

  // Phase 4 (sequential): assemble results in genotype order.
  std::vector<std::optional<Evaluated>> results(n);
  for (std::size_t i = 0; i < n; ++i) {
    Slot& slot = slots_[i];
    if (!slot.feasible) continue;
    Evaluated& evaluated = results[i].emplace();
    evaluated.objectives = *slot.objectives;
    evaluated.vector = evaluated.objectives.ToMinimizationVector(
        include_transition_quality_);
    evaluated.implementation = &slot.impl;
  }
  return results;
}

}  // namespace bistdse::dse
