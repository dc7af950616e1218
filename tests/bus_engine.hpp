// One can::CanBus replayed on a single-bus net::NetworkEngine: the
// frame-level cross-check of the analytical WCRT model in tests.
#pragma once

#include <map>
#include <stdexcept>

#include "can/bus.hpp"
#include "net/engine.hpp"

namespace bistdse::testing {

/// True iff every message of `bus` meets its deadline (= period).
inline bool Schedulable(const can::CanBus& bus) {
  for (const auto& [id, response] : bus.AllResponseTimes()) {
    if (!response || !response->schedulable) return false;
  }
  return true;
}

struct BusRun {
  std::map<can::CanId, net::SlotHopStats> per_id;
  double busy_ms = 0.0;
  double duration_ms = 0.0;

  /// Stats of message `id`; throws std::out_of_range when absent.
  const net::SlotHopStats& Of(can::CanId id) const { return per_id.at(id); }
  double Utilization() const { return busy_ms / duration_ms; }
};

/// Runs every message of `bus` as a periodic slot until `duration_ms`.
/// Every slot is first released at its entry in `offsets_ms` (default 0:
/// the critical instant). Slots are added in priority order, so releases
/// at one instant on an idle bus start the lowest id first, as CAN
/// arbitration does.
inline BusRun RunBusOnEngine(const can::CanBus& bus, double duration_ms,
                             const std::map<can::CanId, double>& offsets_ms =
                                 {}) {
  net::NetworkEngine engine;
  const net::BusIndex index = engine.AddBus(bus.Name(), bus.BitrateBps());
  for (const can::CanMessage& m : bus.Messages()) {
    net::PeriodicSlot slot;
    slot.message = m;
    slot.path = {index};
    slot.hop_ids = {m.id};
    if (const auto it = offsets_ms.find(m.id); it != offsets_ms.end()) {
      slot.first_release_ms = it->second;
    }
    engine.AddSlot(std::move(slot));
  }
  engine.Run(duration_ms);

  BusRun run;
  run.busy_ms = engine.BusBusyMs(index);
  run.duration_ms = duration_ms;
  for (std::size_t s = 0; s < engine.SlotCount(); ++s) {
    run.per_id[engine.Slot(s).hop_ids.front()] = engine.StatsOf(s, 0);
  }
  return run;
}

}  // namespace bistdse::testing
