#include "dse/evaluation_engine.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <unordered_map>

#include "can/canfd.hpp"
#include "can/mirroring.hpp"
#include "util/thread_pool.hpp"

namespace bistdse::dse {

using model::ApplicationGraph;
using model::Message;
using model::ResourceId;
using model::Task;
using model::TaskId;

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
    for (const ResourceId r : path) mix(r);
  }
  return h;
}

EvaluationContext::EvaluationContext(const model::Specification& spec,
                                     const model::BistAugmentation& augmentation,
                                     const model::Implementation& impl,
                                     const EvaluationOptions& options)
    : spec(spec),
      augmentation(augmentation),
      impl(impl),
      options(options),
      bound_at(impl.BoundResources(spec)) {
  const ApplicationGraph& app = spec.Application();
  const auto& arch = spec.Architecture();

  // Group the functional messages by sender resource with a counting sort,
  // which keeps message-id order within each group.
  const auto sender_at = [&](model::MessageId c) {
    const Message& msg = app.GetMessage(c);
    return msg.diagnostic ? model::kInvalidId : bound_at[msg.sender];
  };
  tx_begin.assign(arch.ResourceCount() + 1, 0);
  for (model::MessageId c = 0; c < app.MessageCount(); ++c) {
    if (const ResourceId r = sender_at(c); r != model::kInvalidId) {
      ++tx_begin[r + 1];
    }
  }
  for (ResourceId r = 0; r < arch.ResourceCount(); ++r) {
    tx_begin[r + 1] += tx_begin[r];
  }
  tx_messages.resize(tx_begin.back());
  std::vector<std::uint32_t> next(tx_begin.begin(), tx_begin.end() - 1);
  for (model::MessageId c = 0; c < app.MessageCount(); ++c) {
    const ResourceId r = sender_at(c);
    if (r == model::kInvalidId) continue;
    can::CanMessage& cm = tx_messages[next[r]++];
    cm.payload_bytes = app.GetMessage(c).payload_bytes;
    cm.period_ms = app.GetMessage(c).period_ms;
  }

  for (const auto& [ecu, ecu_programs] : augmentation.programs_by_ecu) {
    for (const auto& prog : ecu_programs) {
      ProgramPlacement placement;
      placement.program = &prog;
      placement.ecu = ecu;
      placement.test_bound = bound_at[prog.test_task] != model::kInvalidId;
      placement.data_at = bound_at[prog.data_task];
      placement.data_bound = placement.data_at != model::kInvalidId;

      if (placement.test_bound) {
        const Task& test = app.GetTask(prog.test_task);
        const Task& data = app.GetTask(prog.data_task);
        placement.session_ms = test.runtime_ms;
        if (placement.data_bound && placement.data_at != ecu) {
          // Patterns transmitted first: Eq. (1) over the ECU's functional
          // messages (or their CAN FD upgrades).
          const std::span<const can::CanMessage> tx = TxMessages(ecu);
          double transfer_ms = 0.0;
          if (options.use_can_fd && !tx.empty()) {
            double bytes_per_ms = 0.0;
            for (const can::CanMessage& m : tx) {
              bytes_per_ms +=
                  static_cast<double>(can::RoundUpFdPayload(
                      options.fd_payload_bytes)) /
                  m.period_ms;
            }
            transfer_ms = static_cast<double>(data.data_bytes) / bytes_per_ms;
          } else {
            transfer_ms = can::MirroredTransferTimeMs(data.data_bytes, tx);
          }
          placement.transfer_ms = transfer_ms;
          placement.session_ms += transfer_ms;
        }
      }
      programs.push_back(placement);
    }
  }

  for (ResourceId r = 0; r < arch.ResourceCount(); ++r) {
    if (r >= impl.allocation.size() || !impl.allocation[r]) continue;
    if (arch.GetResource(r).kind == model::ResourceKind::Ecu) ++ecus_allocated;
  }
}

namespace {

/// Gateway memory dedup key: (cut type, profile index) — identical silicon
/// shares one encoded copy.
std::uint64_t ProfileKey(const model::BistProgram& prog) {
  return (static_cast<std::uint64_t>(prog.cut_type) << 32) |
         prog.profile_index;
}

/// Eq. 4 average stuck-at coverage over allocated ECUs (maximized), plus the
/// ECU counters and the TDF analog (the transition field is also filled here
/// so Objectives stays fully populated whether or not the transition stage
/// is registered — matching the historical monolith).
class TestQualityStage final : public ObjectiveStage {
 public:
  std::string_view Name() const override { return "test_quality"; }
  std::size_t Dimensions() const override { return 1; }
  void Evaluate(const EvaluationContext& context,
                Objectives& out) const override {
    const ApplicationGraph& app = context.spec.Application();
    double coverage_sum = 0.0;
    double transition_sum = 0.0;
    std::uint32_t with_bist = 0;
    for (const auto& placement : context.programs) {
      if (!placement.test_bound) continue;
      const Task& test = app.GetTask(placement.program->test_task);
      coverage_sum += test.fault_coverage_percent;
      transition_sum += test.transition_coverage_percent;
      ++with_bist;
    }
    out.ecus_with_bist = with_bist;
    out.ecus_allocated = context.ecus_allocated;
    const auto ecus = static_cast<double>(context.ecus_allocated);
    out.test_quality_percent =
        context.ecus_allocated == 0 ? 0.0 : coverage_sum / ecus;
    out.transition_quality_percent =
        context.ecus_allocated == 0 ? 0.0 : transition_sum / ecus;
  }
  void AppendMinimization(const Objectives& objectives,
                          moea::ObjectiveVector& out) const override {
    out.push_back(-objectives.test_quality_percent);
  }
};

/// Eq.-4 analog over the profiles' transition (TDF) coverage — the second
/// fault model of the dual-model exploration. Evaluation is idempotent with
/// TestQualityStage's fill; this stage's reason to exist is the extra
/// minimization dimension.
class TransitionQualityStage final : public ObjectiveStage {
 public:
  std::string_view Name() const override { return "transition_quality"; }
  std::size_t Dimensions() const override { return 1; }
  void Evaluate(const EvaluationContext& context,
                Objectives& out) const override {
    const ApplicationGraph& app = context.spec.Application();
    double transition_sum = 0.0;
    for (const auto& placement : context.programs) {
      if (!placement.test_bound) continue;
      transition_sum +=
          app.GetTask(placement.program->test_task).transition_coverage_percent;
    }
    out.transition_quality_percent =
        context.ecus_allocated == 0
            ? 0.0
            : transition_sum / static_cast<double>(context.ecus_allocated);
  }
  void AppendMinimization(const Objectives& objectives,
                          moea::ObjectiveVector& out) const override {
    out.push_back(-objectives.transition_quality_percent);
  }
};

/// Eq. 5 shut-off time (maximum extra awake time over all BIST sessions,
/// minimized), riding on the Eq.-1 mirrored-transfer/bus-load timings the
/// context computed. Remote-storage programs whose ECU sends no functional
/// payload have no mirrored bandwidth to ride — infinite shut-off, counted
/// in sessions_without_bandwidth.
class ShutoffStage final : public ObjectiveStage {
 public:
  std::string_view Name() const override { return "shutoff_bus_load"; }
  std::size_t Dimensions() const override { return 1; }
  void Evaluate(const EvaluationContext& context,
                Objectives& out) const override {
    double shutoff_ms = 0.0;
    std::uint32_t without_bandwidth = 0;
    for (const auto& placement : context.programs) {
      if (!placement.test_bound) continue;
      if (placement.data_bound && placement.data_at != placement.ecu &&
          !std::isfinite(placement.transfer_ms)) {
        ++without_bandwidth;
      }
      shutoff_ms = std::max(shutoff_ms, placement.session_ms);
    }
    out.shutoff_time_ms = shutoff_ms;
    out.sessions_without_bandwidth = without_bandwidth;
  }
  void AppendMinimization(const Objectives& objectives,
                          moea::ObjectiveVector& out) const override {
    out.push_back(objectives.shutoff_time_ms);
  }
};

/// Allocated hardware + pattern memory (minimized) — the virtual cost metric
/// of the paper's footnote 1, with gateway pattern-memory deduplication per
/// (CUT type, profile index).
class MonetaryCostStage final : public ObjectiveStage {
 public:
  std::string_view Name() const override { return "monetary_cost"; }
  std::size_t Dimensions() const override { return 1; }
  void Evaluate(const EvaluationContext& context,
                Objectives& out) const override {
    const ApplicationGraph& app = context.spec.Application();
    const auto& arch = context.spec.Architecture();
    const ResourceId gateway = arch.Gateway();

    double cost = 0.0;
    for (ResourceId r = 0; r < arch.ResourceCount(); ++r) {
      if (r < context.impl.allocation.size() && context.impl.allocation[r]) {
        cost += arch.GetResource(r).base_cost;
      }
    }

    // Distributed pattern memory: per-ECU copies at the ECU's byte cost.
    double memory_cost = 0.0;
    std::uint64_t distributed_bytes = 0;
    std::set<std::uint64_t> gateway_profiles;
    std::map<std::uint64_t, std::uint64_t> profile_bytes;
    for (const auto& placement : context.programs) {
      const model::BistProgram& prog = *placement.program;
      profile_bytes[ProfileKey(prog)] = app.GetTask(prog.data_task).data_bytes;
      if (!placement.data_bound) continue;
      if (placement.data_at == placement.ecu) {
        memory_cost +=
            arch.GetResource(placement.ecu).cost_per_byte *
            static_cast<double>(app.GetTask(prog.data_task).data_bytes);
        if (placement.test_bound) {
          distributed_bytes += app.GetTask(prog.data_task).data_bytes;
        }
      } else if (placement.test_bound && placement.data_at == gateway) {
        gateway_profiles.insert(ProfileKey(prog));
      }
    }
    // Gateway pattern memory: one copy per distinct profile.
    std::uint64_t gw_bytes = 0;
    for (std::uint64_t p : gateway_profiles) gw_bytes += profile_bytes[p];
    memory_cost +=
        arch.GetResource(gateway).cost_per_byte * static_cast<double>(gw_bytes);

    out.distributed_memory_bytes = distributed_bytes;
    out.gateway_memory_bytes = gw_bytes;
    out.pattern_memory_cost = memory_cost;
    out.monetary_cost = cost + memory_cost;
  }
  void AppendMinimization(const Objectives& objectives,
                          moea::ObjectiveVector& out) const override {
    out.push_back(objectives.monetary_cost);
  }
};

}  // namespace

std::shared_ptr<const ObjectiveStage> MakeTestQualityStage() {
  return std::make_shared<const TestQualityStage>();
}
std::shared_ptr<const ObjectiveStage> MakeTransitionQualityStage() {
  return std::make_shared<const TransitionQualityStage>();
}
std::shared_ptr<const ObjectiveStage> MakeShutoffStage() {
  return std::make_shared<const ShutoffStage>();
}
std::shared_ptr<const ObjectiveStage> MakeMonetaryCostStage() {
  return std::make_shared<const MonetaryCostStage>();
}

StageList DefaultStages(bool include_transition_quality) {
  StageList stages;
  stages.push_back(MakeTestQualityStage());
  if (include_transition_quality) stages.push_back(MakeTransitionQualityStage());
  stages.push_back(MakeShutoffStage());
  stages.push_back(MakeMonetaryCostStage());
  return stages;
}

Objectives EvaluateWithStages(const model::Specification& spec,
                              const model::BistAugmentation& augmentation,
                              const model::Implementation& impl,
                              const EvaluationOptions& options,
                              const StageList& stages) {
  const EvaluationContext context(spec, augmentation, impl, options);
  Objectives out;
  for (const auto& stage : stages) stage->Evaluate(context, out);
  return out;
}

EvaluationEngine::EvaluationEngine(const model::Specification& spec,
                                   const model::BistAugmentation& augmentation,
                                   EvaluationEngineConfig config)
    : spec_(spec), augmentation_(augmentation), config_(std::move(config)) {
  if (config_.stages.empty()) config_.stages = DefaultStages(false);
}

std::size_t EvaluationEngine::ObjectiveDimensions() const {
  std::size_t dims = 0;
  for (const auto& stage : config_.stages) dims += stage->Dimensions();
  return dims;
}

Objectives EvaluationEngine::Evaluate(const model::Implementation& impl) const {
  return EvaluateWithStages(spec_, augmentation_, impl, config_.evaluation,
                            config_.stages);
}

Objectives EvaluationEngine::EvaluateCached(const model::Implementation& impl,
                                            bool* cache_hit) {
  bool hit = false;
  Objectives objectives = memo_.GetOrCompute(
      ImplementationSignature(impl), [&] { return Evaluate(impl); }, &hit);
  if (hit) cache_hits_.fetch_add(1, std::memory_order_relaxed);
  if (cache_hit != nullptr) *cache_hit = hit;
  return objectives;
}

EvaluationEngine::Session::Session(EvaluationEngine& engine)
    : engine_(engine),
      decoder_(engine.spec_, engine.augmentation_,
               engine.config_.validate_each_decode) {}

std::optional<EvaluationEngine::Evaluated>
EvaluationEngine::Session::Evaluate(const moea::Genotype& genotype) {
  auto impl = decoder_.Decode(genotype);
  if (!impl) return std::nullopt;
  Evaluated evaluated;
  evaluated.objectives = engine_.EvaluateCached(*impl, &evaluated.cache_hit);
  if (evaluated.cache_hit) ++cache_hits_;
  evaluated.vector = engine_.Minimize(evaluated.objectives);
  evaluated.implementation = std::move(*impl);
  return evaluated;
}

std::vector<std::optional<EvaluationEngine::Evaluated>>
EvaluationEngine::Session::EvaluateBatch(
    std::span<const moea::Genotype> genotypes) {
  struct Slot {
    model::Implementation impl;
    std::uint64_t signature = 0;
    bool hit = false;
  };
  std::vector<std::optional<Slot>> slots(genotypes.size());

  // Phase 1 (sequential — the SAT decoder is stateful): decode every
  // genotype, resolve memo hits, and collect the first occurrence of each
  // uncached signature as an evaluation job. A batch-internal duplicate of
  // an uncached signature is a hit, exactly as in the one-by-one path where
  // the first occurrence would have populated the memo already.
  std::unordered_map<std::uint64_t, Objectives> resolved;
  std::vector<std::pair<std::uint64_t, const model::Implementation*>> jobs;
  for (std::size_t i = 0; i < genotypes.size(); ++i) {
    auto impl = decoder_.Decode(genotypes[i]);
    if (!impl) continue;
    Slot slot;
    slot.signature = ImplementationSignature(*impl);
    slot.impl = std::move(*impl);
    if (resolved.count(slot.signature) > 0) {
      slot.hit = true;
    } else if (auto cached = engine_.memo_.Lookup(slot.signature)) {
      resolved.emplace(slot.signature, *std::move(cached));
      slot.hit = true;
    }
    slots[i] = std::move(slot);
    if (!slots[i]->hit) {
      // Placeholder so batch-internal duplicates score as hits; overwritten
      // with the computed value after phase 2.
      resolved.emplace(slots[i]->signature, Objectives{});
      jobs.emplace_back(slots[i]->signature, &slots[i]->impl);
    }
  }

  // Phase 2: evaluate the distinct uncached implementations — pure
  // functions, so chunk order cannot change any value. threads == 1 stays
  // strictly inline (the bit-reference path the determinism tests pin).
  std::vector<Objectives> computed(jobs.size());
  const auto evaluate_job = [&](std::size_t j) {
    computed[j] = engine_.Evaluate(*jobs[j].second);
  };
  if (engine_.config_.threads == 1 || jobs.size() <= 1) {
    for (std::size_t j = 0; j < jobs.size(); ++j) evaluate_job(j);
  } else {
    util::ThreadPool::Global().ParallelFor(
        0, jobs.size(), engine_.config_.threads,
        [&](std::size_t begin, std::size_t end, std::size_t /*slot*/) {
          for (std::size_t j = begin; j < end; ++j) evaluate_job(j);
        });
  }
  // Publish in job order, adopting the canonical value on a lost race with
  // a concurrent session.
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    resolved[jobs[j].first] = engine_.memo_.Insert(jobs[j].first, computed[j]);
  }

  // Phase 3 (sequential): assemble results in genotype order.
  std::vector<std::optional<Evaluated>> results(genotypes.size());
  std::uint64_t hits = 0;
  for (std::size_t i = 0; i < genotypes.size(); ++i) {
    if (!slots[i]) continue;
    Evaluated evaluated;
    evaluated.objectives = resolved.at(slots[i]->signature);
    evaluated.vector = engine_.Minimize(evaluated.objectives);
    evaluated.implementation = std::move(slots[i]->impl);
    evaluated.cache_hit = slots[i]->hit;
    hits += slots[i]->hit;
    results[i] = std::move(evaluated);
  }
  cache_hits_ += hits;
  if (hits > 0) engine_.cache_hits_.fetch_add(hits, std::memory_order_relaxed);
  return results;
}

}  // namespace bistdse::dse
