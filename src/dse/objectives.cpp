#include "dse/objectives.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <span>
#include <vector>

#include "can/message.hpp"
#include "can/mirroring.hpp"

namespace bistdse::dse {

using model::ApplicationGraph;
using model::Message;
using model::ResourceId;
using model::Task;

namespace {

/// Payload of a CAN FD frame in a mirrored slot: the CAN FD maximum.
constexpr std::uint32_t kFdPayloadBytes = 64;

/// Per-implementation intermediates, computed once and read by every
/// objective: task placements, the functional TX message sets of Eq. (1),
/// and the placement/transfer timing of each BIST program.
struct EvaluationContext {
  EvaluationContext(const model::Specification& spec,
                    const model::BistAugmentation& augmentation,
                    const model::Implementation& impl,
                    const EvaluationOptions& options);

  const model::Specification& spec;
  const model::Implementation& impl;

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

EvaluationContext::EvaluationContext(const model::Specification& spec,
                                     const model::BistAugmentation& augmentation,
                                     const model::Implementation& impl,
                                     const EvaluationOptions& options)
    : spec(spec), impl(impl), bound_at(impl.BoundResources(spec)) {
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
                  static_cast<double>(kFdPayloadBytes) / m.period_ms;
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

/// Gateway memory dedup key: (cut type, profile index) — identical silicon
/// shares one encoded copy.
std::uint64_t ProfileKey(const model::BistProgram& prog) {
  return (static_cast<std::uint64_t>(prog.cut_type) << 32) |
         prog.profile_index;
}

/// Eq. 4 average stuck-at coverage over allocated ECUs (maximized), its
/// transition-fault (TDF) analog, and the ECU counters.
void EvaluateTestQuality(const EvaluationContext& context, Objectives& out) {
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

/// Eq. 5 shut-off time (maximum extra awake time over all BIST sessions,
/// minimized), riding on the Eq.-1 mirrored-transfer timings the context
/// computed. Remote-storage programs whose ECU sends no functional payload
/// have no mirrored bandwidth to ride — infinite shut-off, counted in
/// sessions_without_bandwidth.
void EvaluateShutoff(const EvaluationContext& context, Objectives& out) {
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

/// Allocated hardware + pattern memory (minimized) — the virtual cost metric
/// of the paper's footnote 1, with gateway pattern-memory deduplication per
/// (CUT type, profile index).
void EvaluateMonetaryCost(const EvaluationContext& context, Objectives& out) {
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

}  // namespace

Objectives EvaluateImplementation(const model::Specification& spec,
                                  const model::BistAugmentation& augmentation,
                                  const model::Implementation& impl,
                                  const EvaluationOptions& options) {
  const EvaluationContext context(spec, augmentation, impl, options);
  Objectives out;
  EvaluateTestQuality(context, out);
  EvaluateShutoff(context, out);
  EvaluateMonetaryCost(context, out);
  return out;
}

}  // namespace bistdse::dse
