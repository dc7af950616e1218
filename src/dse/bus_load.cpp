#include "dse/bus_load.hpp"

#include <algorithm>
#include <limits>

namespace bistdse::dse {

using model::Message;
using model::MessageId;
using model::ResourceId;
using model::ResourceKind;

RoutedBusNetwork BuildRoutedBusNetwork(const model::Specification& spec,
                                       const model::Implementation& impl,
                                       std::uint32_t id_stride) {
  const auto& app = spec.Application();
  const auto& arch = spec.Architecture();
  RoutedBusNetwork net;

  // Functional messages per bus, ordered by (period, id) for priority
  // assignment: rate-monotonic-style, shorter period = higher priority.
  for (const auto& [c, path] : impl.routing) {
    const Message& msg = app.GetMessage(c);
    if (msg.diagnostic) continue;
    for (ResourceId r : path) {
      if (arch.GetResource(r).kind == ResourceKind::Bus) {
        net.per_bus[r].push_back(c);
      }
    }
  }

  // Gateways re-map identifiers per segment: a message crossing two buses
  // has one id per bus.
  for (auto& [bus_id, messages] : net.per_bus) {
    std::sort(messages.begin(), messages.end(),
              [&](MessageId a, MessageId b) {
                const auto& ma = app.GetMessage(a);
                const auto& mb = app.GetMessage(b);
                if (ma.period_ms != mb.period_ms)
                  return ma.period_ms < mb.period_ms;
                return a < b;
              });
    can::CanBus bus(arch.GetResource(bus_id).name,
                    arch.GetResource(bus_id).bus_bitrate_bps);
    can::CanId next_id = 0;
    for (MessageId c : messages) {
      const Message& msg = app.GetMessage(c);
      can::CanMessage cm;
      cm.name = msg.name;
      cm.id = next_id;
      cm.payload_bytes = msg.payload_bytes;
      cm.period_ms = msg.period_ms;
      bus.AddMessage(cm);
      net.id_of[{bus_id, c}] = next_id;
      next_id += id_stride;
    }
    net.buses.emplace(bus_id, std::move(bus));
  }
  return net;
}

BusLoadReport BusLoadValidator::Validate(
    const model::BistAugmentation& augmentation,
    const model::Implementation& impl) const {
  const auto& app = spec_.Application();
  const auto& arch = spec_.Architecture();
  BusLoadReport report;

  const std::vector<ResourceId> bound_at = impl.BoundResources(spec_);

  RoutedBusNetwork routed = BuildRoutedBusNetwork(spec_, impl, id_stride_);
  auto& per_bus = routed.per_bus;
  auto& buses = routed.buses;
  auto& id_of = routed.id_of;
  for (const auto& [bus_id, messages] : per_bus) {
    const can::CanBus& bus = buses.at(bus_id);
    BusLoadEntry entry;
    entry.bus = bus_id;
    entry.utilization = bus.Utilization();
    entry.schedulable = bus.Schedulable();
    entry.message_count = messages.size();
    report.all_schedulable &= entry.schedulable;
    report.buses.push_back(entry);
  }

  // End-to-end latency per routed functional message: the sum of the WCRT
  // on every traversed bus plus a store-and-forward delay per gateway
  // crossing (deadline = period, the usual implicit-deadline assumption).
  for (const auto& [c, path] : impl.routing) {
    const Message& msg = app.GetMessage(c);
    if (msg.diagnostic) continue;
    EndToEndLatency e2e;
    e2e.message = c;
    for (ResourceId r : path) {
      if (arch.GetResource(r).kind == ResourceKind::Bus) {
        ++e2e.hops;
        const auto it = buses.find(r);
        if (it == buses.end()) continue;
        const auto rt = it->second.ResponseTime(id_of[{r, c}]);
        if (rt) {
          e2e.worst_case_ms += rt->worst_case_ms;
        } else {
          e2e.worst_case_ms = std::numeric_limits<double>::infinity();
        }
      } else if (arch.GetResource(r).kind == ResourceKind::Gateway) {
        e2e.worst_case_ms += gateway_delay_ms_;
      }
    }
    if (e2e.hops == 0) continue;  // local message, nothing on the wire
    e2e.within_period = e2e.worst_case_ms <= msg.period_ms;
    report.all_within_period &= e2e.within_period;
    report.end_to_end.push_back(e2e);
  }

  // Mirrored-transfer non-intrusiveness per selected remote-storage program.
  for (const auto& [ecu, programs] : augmentation.programs_by_ecu) {
    // The ECU's attached bus (tree topology: exactly one).
    ResourceId ecu_bus = model::kInvalidId;
    for (ResourceId n : arch.Neighbors(ecu)) {
      if (arch.GetResource(n).kind == ResourceKind::Bus) {
        ecu_bus = n;
        break;
      }
    }
    if (ecu_bus == model::kInvalidId || !buses.count(ecu_bus)) continue;
    const can::CanBus& bus = buses.at(ecu_bus);

    // Functional TX messages of this ECU on its bus.
    std::vector<can::CanMessage> ecu_tx;
    for (MessageId c : per_bus[ecu_bus]) {
      if (bound_at[app.GetMessage(c).sender] != ecu) continue;
      for (const can::CanMessage& cm : bus.Messages()) {
        if (cm.id == id_of[{ecu_bus, c}]) {
          ecu_tx.push_back(cm);
          break;
        }
      }
    }
    if (ecu_tx.empty()) continue;

    for (const auto& prog : programs) {
      const ResourceId data_at = bound_at[prog.data_task];
      if (bound_at[prog.test_task] == model::kInvalidId ||
          data_at == model::kInvalidId || data_at == ecu) {
        continue;  // not selected, or local storage: nothing on the wire
      }
      const auto mirrored = can::MakeMirroredMessages(ecu_tx, 1);
      const auto verdict = can::CheckNonIntrusiveness(bus, ecu_tx, mirrored);
      ++report.mirrored_transfers_checked;
      if (!verdict.non_intrusive) ++report.mirrored_transfers_intrusive;
    }
  }
  return report;
}

}  // namespace bistdse::dse
