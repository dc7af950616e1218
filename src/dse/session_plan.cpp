#include "dse/session_plan.hpp"

#include <cmath>
#include <sstream>

#include "can/mirroring.hpp"

namespace bistdse::dse {

using model::Message;
using model::ResourceId;

std::vector<SessionPlan> PlanSessions(
    const model::Specification& spec,
    const model::BistAugmentation& augmentation,
    const model::Implementation& impl) {
  const auto& app = spec.Application();
  std::vector<SessionPlan> plans;

  const std::vector<ResourceId> bound_at = impl.BoundResources(spec);
  std::map<ResourceId, std::vector<can::CanMessage>> tx_messages;
  for (model::MessageId c = 0; c < app.MessageCount(); ++c) {
    const Message& msg = app.GetMessage(c);
    if (msg.diagnostic || bound_at[msg.sender] == model::kInvalidId) continue;
    can::CanMessage cm;
    cm.name = msg.name;
    cm.payload_bytes = msg.payload_bytes;
    cm.period_ms = msg.period_ms;
    tx_messages[bound_at[msg.sender]].push_back(cm);
  }

  for (const auto& [ecu, programs] : augmentation.programs_by_ecu) {
    for (const auto& prog : programs) {
      if (bound_at[prog.test_task] == model::kInvalidId) continue;
      const auto& test = app.GetTask(prog.test_task);
      const auto& data = app.GetTask(prog.data_task);

      SessionPlan plan;
      plan.ecu = ecu;
      plan.profile_index = prog.profile_index;
      plan.patterns_local = bound_at[prog.data_task] == ecu;

      const auto tx_it = tx_messages.find(ecu);
      const std::span<const can::CanMessage> tx =
          tx_it == tx_messages.end()
              ? std::span<const can::CanMessage>{}
              : std::span<const can::CanMessage>(tx_it->second);

      double t = 0.0;
      auto phase = [&](std::string name, double duration) {
        plan.phases.push_back({std::move(name), t, duration});
        t += duration;
      };

      if (!plan.patterns_local) {
        const double transfer =
            can::MirroredTransferTimeMs(data.data_bytes, tx);
        if (!std::isfinite(transfer)) {
          // No mirrored bandwidth (ECU sends nothing): casting the +inf
          // frame count below would be UB, so reject the plan explicitly.
          plan.feasible = false;
          plan.phases.push_back({"pattern download (mirrored slots)", t,
                                 transfer});
          plan.total_ms = transfer;
          plans.push_back(std::move(plan));
          continue;
        }
        phase("pattern download (mirrored slots)", transfer);
        // One frame per mirrored slot firing during the transfer.
        for (const can::CanMessage& m : tx) {
          plan.download_frames += static_cast<std::uint64_t>(
              std::ceil(transfer / m.period_ms));
        }
      }
      phase("BIST session (shift/capture + windows)", test.runtime_ms);

      // Fail-data upload: the fixed-size fail memory over the same slots.
      double upload = 0.0;
      if (!tx.empty()) {
        upload = can::MirroredTransferTimeMs(bist::kFailDataBytes, tx);
        if (!std::isfinite(upload)) {
          // Zero-payload functional set: same divergence as the download.
          plan.feasible = false;
          plan.phases.push_back({"fail-data upload to b^R", t, upload});
          plan.total_ms = upload;
          plans.push_back(std::move(plan));
          continue;
        }
        for (const can::CanMessage& m : tx) {
          plan.fail_data_frames += static_cast<std::uint64_t>(
              std::ceil(upload / m.period_ms));
        }
      }
      phase("fail-data upload to b^R", upload);
      phase("functional state restore", bist::kStateRestoreMs);

      plan.total_ms = t;
      plans.push_back(std::move(plan));
    }
  }
  return plans;
}

std::string FormatSessionPlan(const model::Specification& spec,
                              const SessionPlan& plan) {
  std::ostringstream ss;
  ss << spec.Architecture().GetResource(plan.ecu).name << ", profile "
     << plan.profile_index + 1 << ", patterns "
     << (plan.patterns_local ? "local" : "remote") << ", total "
     << plan.total_ms << " ms\n";
  if (!plan.feasible) {
    ss << "  INFEASIBLE: no mirrored bandwidth"
          " (ECU sends no functional payload)\n";
  }
  for (const SessionPhase& phase : plan.phases) {
    ss << "  [" << phase.start_ms << " .. "
       << phase.start_ms + phase.duration_ms << " ms] " << phase.name << "\n";
  }
  if (plan.download_frames > 0) {
    ss << "  download frames: " << plan.download_frames << "\n";
  }
  ss << "  fail-data frames: " << plan.fail_data_frames << "\n";
  return ss.str();
}

}  // namespace bistdse::dse
