#include "dse/evaluation_engine.hpp"

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

EvaluationEngine::EvaluationEngine(const model::Specification& spec,
                                   const model::BistAugmentation& augmentation,
                                   const ExplorationConfig& config)
    : spec_(spec),
      augmentation_(augmentation),
      options_(config.evaluation),
      include_transition_quality_(config.include_transition_quality),
      threads_(config.threads),
      decoder_(spec, augmentation, config.validate_each_decode) {}

std::vector<std::optional<EvaluationEngine::Evaluated>>
EvaluationEngine::EvaluateBatch(std::span<const moea::Genotype> genotypes) {
  struct Slot {
    model::Implementation impl;
    const Objectives* objectives = nullptr;  ///< The memo entry.
  };
  std::vector<std::optional<Slot>> slots(genotypes.size());

  // Phase 1 (sequential — the SAT decoder is stateful): decode every
  // genotype and resolve it against the memo. The first occurrence of a new
  // signature reserves its memo entry and becomes an evaluation job, so a
  // later repeat in the same batch is a hit, as in one-by-one evaluation.
  // Memo entries are nodes, so the pointers survive rehashing.
  struct Job {
    const model::Implementation* impl;
    Objectives* objectives;
  };
  std::vector<Job> jobs;
  for (std::size_t i = 0; i < genotypes.size(); ++i) {
    auto impl = decoder_.Decode(genotypes[i]);
    if (!impl) continue;
    const auto [entry, inserted] =
        memo_.try_emplace(ImplementationSignature(*impl));
    Slot& slot = slots[i].emplace(Slot{std::move(*impl), &entry->second});
    if (inserted) {
      jobs.push_back({&slot.impl, &entry->second});
    } else {
      ++cache_hits_;
    }
  }

  // Phase 2: evaluate the new implementations — pure functions writing
  // distinct memo entries, so chunk order cannot change any value.
  // threads == 1 stays strictly inline (the bit-reference path the
  // determinism tests pin).
  const auto evaluate_job = [&](std::size_t j) {
    *jobs[j].objectives =
        EvaluateImplementation(spec_, augmentation_, *jobs[j].impl, options_);
  };
  if (threads_ == 1 || jobs.size() <= 1) {
    for (std::size_t j = 0; j < jobs.size(); ++j) evaluate_job(j);
  } else {
    util::ThreadPool::Global().ParallelFor(
        0, jobs.size(), threads_,
        [&](std::size_t begin, std::size_t end, std::size_t /*slot*/) {
          for (std::size_t j = begin; j < end; ++j) evaluate_job(j);
        });
  }

  // Phase 3 (sequential): assemble results in genotype order.
  std::vector<std::optional<Evaluated>> results(genotypes.size());
  for (std::size_t i = 0; i < genotypes.size(); ++i) {
    if (!slots[i]) continue;
    Evaluated& evaluated = results[i].emplace();
    evaluated.objectives = *slots[i]->objectives;
    evaluated.vector = evaluated.objectives.ToMinimizationVector(
        include_transition_quality_);
    evaluated.implementation = std::move(slots[i]->impl);
  }
  return results;
}

}  // namespace bistdse::dse
