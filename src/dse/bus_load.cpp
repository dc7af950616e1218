#include "dse/bus_load.hpp"

#include <algorithm>

namespace bistdse::dse {

using model::Message;
using model::MessageId;
using model::ResourceId;
using model::ResourceKind;

RoutedBusNetwork BuildRoutedBusNetwork(const model::Specification& spec,
                                       const model::Implementation& impl) {
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
      next_id += kIdStride;
    }
    net.buses.emplace(bus_id, std::move(bus));
  }
  return net;
}

}  // namespace bistdse::dse
