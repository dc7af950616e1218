#include "dse/refine.hpp"

#include <algorithm>
#include <deque>
#include <unordered_map>

#include "dse/evaluation_engine.hpp"
#include "moea/archive.hpp"
#include "util/rng.hpp"

namespace bistdse::dse {

using model::Implementation;
using model::ResourceId;

namespace {

/// Mapping index of `task` onto `resource`, or npos.
std::size_t MappingIndex(const model::Specification& spec, model::TaskId task,
                         ResourceId resource) {
  for (std::size_t m : spec.MappingsOfTask(task)) {
    if (spec.Mappings()[m].resource == resource) return m;
  }
  return static_cast<std::size_t>(-1);
}

/// Binding without any mapping whose task is in `tasks`.
std::vector<std::size_t> WithoutTasks(const model::Specification& spec,
                                      const std::vector<std::size_t>& binding,
                                      std::initializer_list<model::TaskId> tasks) {
  std::vector<std::size_t> out;
  out.reserve(binding.size());
  for (std::size_t m : binding) {
    bool drop = false;
    for (model::TaskId t : tasks) drop |= spec.Mappings()[m].task == t;
    if (!drop) out.push_back(m);
  }
  return out;
}

}  // namespace

RefineResult RefineFront(const model::Specification& spec,
                         const model::BistAugmentation& augmentation,
                         std::span<const ExplorationEntry> front,
                         const RefineOptions& options) {
  RefineResult result;
  util::SplitMix64 rng(options.seed);
  const ResourceId gateway = spec.Architecture().Gateway();

  // Refinement moves produce implementations directly (no genotypes), so
  // they are evaluated through EvaluateImplementation — the exploration's
  // objective arithmetic — behind a local memo keyed like the engine's.
  std::unordered_map<std::uint64_t, Objectives> memo;
  const model::RouteTable routes(spec.Architecture());

  moea::ParetoArchive archive;
  std::vector<ExplorationEntry> store;
  std::deque<std::size_t> worklist;  // indices into store

  auto offer = [&](ExplorationEntry entry) -> bool {
    const auto vec = entry.objectives.ToMinimizationVector();
    if (!archive.Offer(vec, store.size())) return false;
    worklist.push_back(store.size());
    store.push_back(std::move(entry));
    return true;
  };
  for (const auto& entry : front) offer(entry);
  result.improvements = 0;

  auto try_neighbor = [&](Implementation neighbor) {
    if (result.evaluations >= options.max_evaluations) return;
    if (!model::CompleteRoutingAndAllocation(spec, routes, neighbor)) return;
    if (!model::ValidateImplementation(spec, neighbor).empty()) return;
    ++result.evaluations;
    const std::uint64_t signature = ImplementationSignature(neighbor);
    auto cached = memo.find(signature);
    if (cached == memo.end()) {
      cached = memo.emplace(signature, EvaluateImplementation(
                                           spec, augmentation, neighbor))
                   .first;
    }
    ExplorationEntry entry{cached->second, std::move(neighbor)};
    if (offer(std::move(entry))) ++result.improvements;
  };

  while (!worklist.empty() &&
         result.evaluations < options.max_evaluations) {
    const std::size_t index = worklist.front();
    worklist.pop_front();
    const Implementation base = store[index].implementation;  // copy: store grows

    for (const auto& [ecu, programs] : augmentation.programs_by_ecu) {
      if (result.evaluations >= options.max_evaluations) break;
      // Currently selected program on this ECU, if any.
      const model::BistProgram* selected = nullptr;
      ResourceId data_at = model::kInvalidId;
      for (const auto& prog : programs) {
        if (base.IsBound(spec, prog.test_task)) {
          selected = &prog;
          if (auto r = base.BoundResource(spec, prog.data_task)) data_at = *r;
          break;
        }
      }
      if (selected == nullptr) continue;

      // Move 1: toggle the pattern store of the selected program.
      {
        Implementation n;
        n.binding = WithoutTasks(spec, base.binding, {selected->data_task});
        const ResourceId target = data_at == ecu ? gateway : ecu;
        n.binding.push_back(MappingIndex(spec, selected->data_task, target));
        try_neighbor(std::move(n));
      }
      // Move 2: drop BIST from this ECU.
      {
        Implementation n;
        n.binding = WithoutTasks(spec, base.binding,
                                 {selected->test_task, selected->data_task});
        try_neighbor(std::move(n));
      }
      // Move 3: switch to a few random alternative profiles (same store).
      for (int k = 0; k < 3; ++k) {
        const auto& alt = programs[rng.Below(programs.size())];
        if (alt.test_task == selected->test_task) continue;
        Implementation n;
        n.binding = WithoutTasks(spec, base.binding,
                                 {selected->test_task, selected->data_task});
        n.binding.push_back(MappingIndex(spec, alt.test_task, ecu));
        n.binding.push_back(MappingIndex(
            spec, alt.data_task, data_at == ecu ? ecu : gateway));
        try_neighbor(std::move(n));
      }
    }
  }

  for (const auto& entry : archive.Entries()) {
    result.pareto.push_back(store[entry.payload]);
  }
  return result;
}

}  // namespace bistdse::dse
