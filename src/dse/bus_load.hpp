// The per-bus CAN view of an implementation's routed functional traffic.
//
// The paper's non-intrusiveness argument assumes the functional bus
// schedules are certified. The functional messages that an implementation
// routes over each CAN bus are assembled into a can::CanBus, with
// identifiers in priority order, so worst-case response times can be
// analyzed per bus; the frame-accurate session executor (src/net) runs its
// sessions on this view.
#pragma once

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "can/bus.hpp"
#include "model/implementation.hpp"
#include "model/specification.hpp"

namespace bistdse::dse {

/// Spacing of the CAN identifiers assigned on each bus segment. It leaves
/// room for each message's mirrored copy at original id + 1.
inline constexpr can::CanId kIdStride = 16;

/// The routed functional traffic of one implementation, per bus.
/// Identifiers are assigned per segment in routing order with kIdStride
/// spacing, rate-monotonic-style (shorter period = higher priority);
/// gateways re-map identifiers per crossing.
struct RoutedBusNetwork {
  std::map<model::ResourceId, can::CanBus> buses;
  std::map<std::pair<model::ResourceId, model::MessageId>, can::CanId> id_of;
  /// Functional messages per bus in priority order.
  std::map<model::ResourceId, std::vector<model::MessageId>> per_bus;
};

RoutedBusNetwork BuildRoutedBusNetwork(const model::Specification& spec,
                                       const model::Implementation& impl);

}  // namespace bistdse::dse
