#include "dse/partial_networking.hpp"

#include <algorithm>

#include "can/mirroring.hpp"

namespace bistdse::dse {

using model::Message;
using model::ResourceId;

PartialNetworkingReport AnalyzePartialNetworking(
    const model::Specification& spec,
    const model::BistAugmentation& augmentation,
    const model::Implementation& impl,
    const std::map<ResourceId, double>& deadline_ms_by_ecu,
    double default_deadline_ms) {
  const auto& app = spec.Application();
  PartialNetworkingReport report;

  const std::vector<ResourceId> bound_at = impl.BoundResources(spec);

  // Functional TX messages per ECU (the set I of Eq. 1).
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

      EcuSessionTime session;
      session.ecu = ecu;
      session.profile_index = prog.profile_index;
      session.session_ms = test.runtime_ms;

      const ResourceId data_at = bound_at[prog.data_task];
      session.patterns_local = data_at == ecu;
      if (data_at != model::kInvalidId && !session.patterns_local) {
        const auto tx_it = tx_messages.find(ecu);
        session.transfer_ms = can::MirroredTransferTimeMs(
            data.data_bytes,
            tx_it == tx_messages.end()
                ? std::span<const can::CanMessage>{}
                : std::span<const can::CanMessage>(tx_it->second));
        session.session_ms += session.transfer_ms;
      }
      report.max_session_ms =
          std::max(report.max_session_ms, session.session_ms);

      double deadline = default_deadline_ms;
      if (auto it = deadline_ms_by_ecu.find(ecu);
          it != deadline_ms_by_ecu.end()) {
        deadline = it->second;
      }
      if (deadline >= 0.0 && session.session_ms > deadline) {
        report.deadline_violations.push_back(ecu);
      }
      report.sessions.push_back(session);
    }
  }
  return report;
}

}  // namespace bistdse::dse
