#include "net/session_executor.hpp"

#include <algorithm>
#include <cmath>
#include <exception>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "bist/profile.hpp"
#include "can/mirroring.hpp"
#include "util/thread_pool.hpp"

namespace bistdse::net {

using model::Message;
using model::MessageId;
using model::ResourceId;
using model::ResourceKind;

namespace {

/// Safety cap: a transfer phase aborts after kStallFactor times its
/// analytical time without completing (diverging retry storms).
constexpr double kStallFactor = 50.0;

void RecordPhase(EventTrace* trace, TraceEventKind kind, double now_ms,
                 const std::string& note) {
  if (trace != nullptr) trace->Record({now_ms, kind, "", 0, 0, 0, note});
}

}  // namespace

SessionExecutor::SessionExecutor(const model::Specification& spec,
                                 const model::BistAugmentation& augmentation,
                                 const SessionExecutorOptions& options)
    : spec_(spec), augmentation_(augmentation), options_(options) {}

SessionExecution SessionExecutor::ExecuteOne(
    const model::Implementation& impl, const dse::RoutedBusNetwork& routed,
    const dse::SessionPlan& plan, std::uint64_t transfer_id_base,
    const FaultInjectorConfig& faults, EventTrace* trace) const {
  const auto& app = spec_.Application();
  const auto& arch = spec_.Architecture();
  const std::vector<ResourceId> bound_at = impl.BoundResources(spec_);

  SessionExecution result;
  result.plan = plan;
  result.executed = true;

  // The BIST program behind this plan (profile indices are unique per ECU).
  const model::BistProgram* prog = nullptr;
  const auto progs_it = augmentation_.programs_by_ecu.find(plan.ecu);
  if (progs_it != augmentation_.programs_by_ecu.end()) {
    for (const auto& p : progs_it->second) {
      if (p.profile_index == plan.profile_index) {
        prog = &p;
        break;
      }
    }
  }
  if (prog == nullptr) {
    result.completed = false;
    result.failure = "plan has no matching BIST program";
    return result;
  }
  const std::uint64_t pattern_bytes = app.GetTask(prog->data_task).data_bytes;
  const double bist_runtime_ms = app.GetTask(prog->test_task).runtime_ms;

  // The ECU's attached bus (tree topology: exactly one).
  ResourceId ecu_bus = model::kInvalidId;
  for (ResourceId n : arch.Neighbors(plan.ecu)) {
    if (arch.GetResource(n).kind == ResourceKind::Bus) {
      ecu_bus = n;
      break;
    }
  }

  FaultInjectorConfig fault_config = faults;
  fault_config.seed += transfer_id_base;  // Independent stream per session.
  FaultInjector injector(fault_config);
  NetworkEngine engine(&injector, trace, options_.trace_frames);

  std::map<ResourceId, BusIndex> bus_index;
  for (const auto& [r, bus] : routed.buses) {
    bus_index[r] = engine.AddBus(arch.GetResource(r).name,
                                 arch.GetResource(r).bus_bitrate_bps);
  }

  // Per engine slot: the (bus resource, on-wire id) of every hop, plus
  // whether the slot is a mirrored carrier (its analytical WCRT is the
  // functional counterpart's, id - 1).
  std::vector<std::vector<std::pair<ResourceId, can::CanId>>> slot_hops;
  std::vector<bool> slot_mirrored;

  // Functional background traffic: every routed message except the session
  // ECU's own TX set (those applications are shut off; their certified slots
  // are what the mirrored carriers ride). Released at t = 0: the critical
  // instant, so observed responses probe the analytical WCRT from below.
  for (const auto& [c, path] : impl.routing) {
    const Message& msg = app.GetMessage(c);
    if (msg.diagnostic) continue;
    if (bound_at[msg.sender] == plan.ecu) continue;
    PeriodicSlot slot;
    std::vector<std::pair<ResourceId, can::CanId>> hops;
    for (ResourceId r : path) {
      if (arch.GetResource(r).kind != ResourceKind::Bus) continue;
      const can::CanId id = routed.id_of.at({r, c});
      slot.path.push_back(bus_index.at(r));
      slot.hop_ids.push_back(id);
      hops.emplace_back(r, id);
    }
    if (slot.path.empty()) continue;  // co-located, never on the wire
    slot.message.name = msg.name;
    slot.message.id = slot.hop_ids.front();
    slot.message.payload_bytes = msg.payload_bytes;
    slot.message.period_ms = msg.period_ms;
    engine.AddSlot(std::move(slot));
    slot_hops.push_back(std::move(hops));
    slot_mirrored.push_back(false);
  }

  // The ECU's on-wire TX set on its bus — the carriers' timing template.
  std::vector<can::CanMessage> ecu_tx;
  if (ecu_bus != model::kInvalidId && routed.buses.count(ecu_bus) > 0) {
    const can::CanBus& bus = routed.buses.at(ecu_bus);
    const auto per_bus_it = routed.per_bus.find(ecu_bus);
    if (per_bus_it != routed.per_bus.end()) {
      for (MessageId c : per_bus_it->second) {
        if (bound_at[app.GetMessage(c).sender] != plan.ecu) continue;
        for (const can::CanMessage& cm : bus.Messages()) {
          if (cm.id == routed.id_of.at({ecu_bus, c})) {
            ecu_tx.push_back(cm);
            break;
          }
        }
      }
    }
  }

  result.analytical_download_ms =
      plan.patterns_local ? 0.0
                          : can::MirroredTransferTimeMs(pattern_bytes, ecu_tx);
  result.analytical_upload_ms =
      ecu_tx.empty() ? 0.0
                     : can::MirroredTransferTimeMs(bist::kFailDataBytes, ecu_tx);

  const bool needs_wire = !plan.patterns_local || !ecu_tx.empty();
  if (!plan.patterns_local && (ecu_tx.empty() ||
                               !std::isfinite(result.analytical_download_ms))) {
    // The plan may count co-located TX messages that never reach the bus;
    // operationally there is nothing to mirror, so the session is rejected.
    result.completed = false;
    result.failure = "no on-wire mirrored bandwidth on the ECU's bus";
    return result;
  }

  // Mirrored carriers: identical payload/period, id + 1 (directly below the
  // functional slot's priority). First release one period in, so the carrier
  // never outpaces the sustained Eq.-1 byte rate and the simulated transfer
  // time stays at or above the analytical q.
  SlotClientMux mux;
  if (needs_wire && !ecu_tx.empty()) {
    for (const can::CanMessage& m : can::MakeMirroredMessages(ecu_tx, 1)) {
      PeriodicSlot slot;
      slot.message = m;
      slot.path = {bus_index.at(ecu_bus)};
      slot.hop_ids = {m.id};
      slot.first_release_ms = m.period_ms;
      slot.client = &mux;
      engine.AddSlot(std::move(slot));
      slot_hops.push_back({{ecu_bus, m.id}});
      slot_mirrored.push_back(true);
    }
  }

  const std::string ecu_name = arch.GetResource(plan.ecu).name;

  // --- phase 1: pattern download over the mirrored slots -------------------
  if (!plan.patterns_local) {
    SegmentedTransfer download(transfer_id_base, "pattern download " + ecu_name,
                               pattern_bytes, options_.transport, trace);
    mux.active = &download;
    RecordPhase(trace, TraceEventKind::PhaseStart, engine.NowMs(),
                "pattern download " + ecu_name);
    download.Begin(engine.NowMs());
    if (!download.Finished()) {
      const double cap =
          engine.NowMs() +
          kStallFactor * std::max(result.analytical_download_ms, 1.0);
      engine.Run(cap, [&] { return download.Finished(); });
    }
    RecordPhase(trace, TraceEventKind::PhaseEnd, engine.NowMs(),
                "pattern download " + ecu_name);
    mux.active = nullptr;
    result.download = download.Stats();
    result.simulated_download_ms = download.ElapsedMs();
    if (!download.Done()) {
      result.completed = false;
      result.failure = download.Failed()
                           ? "pattern download failed (retry budget)"
                           : "pattern download stalled past the safety cap";
    }
  }

  // --- phase 2: the BIST run itself (bus idles except background traffic) --
  if (result.failure.empty()) {
    RecordPhase(trace, TraceEventKind::PhaseStart, engine.NowMs(),
                "BIST session " + ecu_name);
    engine.Run(engine.NowMs() + bist_runtime_ms);
    RecordPhase(trace, TraceEventKind::PhaseEnd, engine.NowMs(),
                "BIST session " + ecu_name);
  }

  // --- phase 3: fail-data upload to b^R ------------------------------------
  if (result.failure.empty() && !ecu_tx.empty() &&
      std::isfinite(result.analytical_upload_ms)) {
    SegmentedTransfer upload(transfer_id_base + 1,
                             "fail-data upload " + ecu_name,
                             bist::kFailDataBytes, options_.transport, trace);
    mux.active = &upload;
    RecordPhase(trace, TraceEventKind::PhaseStart, engine.NowMs(),
                "fail-data upload " + ecu_name);
    upload.Begin(engine.NowMs());
    if (!upload.Finished()) {
      const double cap =
          engine.NowMs() +
          kStallFactor * std::max(result.analytical_upload_ms, 1.0);
      engine.Run(cap, [&] { return upload.Finished(); });
    }
    RecordPhase(trace, TraceEventKind::PhaseEnd, engine.NowMs(),
                "fail-data upload " + ecu_name);
    mux.active = nullptr;
    result.upload = upload.Stats();
    result.simulated_upload_ms = upload.ElapsedMs();
    if (!upload.Done()) {
      result.completed = false;
      result.failure = upload.Failed()
                           ? "fail-data upload failed (retry budget)"
                           : "fail-data upload stalled past the safety cap";
    }
  }

  // --- phase 4: functional state restore -----------------------------------
  if (result.failure.empty()) {
    engine.Run(engine.NowMs() + bist::kStateRestoreMs);
    result.completed = true;
  }
  result.simulated_total_ms = engine.NowMs();

  // Observed worst responses vs the analytical WCRT of the routed network.
  // Mirrored carriers are checked against their functional counterpart's
  // bound (same timing by construction, id - 1).
  for (std::size_t s = 0; s < slot_hops.size(); ++s) {
    for (std::size_t h = 0; h < slot_hops[s].size(); ++h) {
      const auto [bus_res, id] = slot_hops[s][h];
      const SlotHopStats& stats = engine.StatsOf(s, h);
      if (stats.frames_sent == 0) continue;
      WcrtSample sample;
      sample.bus = bus_res;
      sample.bus_name = arch.GetResource(bus_res).name;
      sample.id = id;
      sample.mirrored = slot_mirrored[s];
      sample.observed_ms = stats.max_response_ms;
      const can::CanId analytical_id = slot_mirrored[s] ? id - 1 : id;
      const auto rt = routed.buses.at(bus_res).ResponseTime(analytical_id);
      sample.analytical_ms = rt ? rt->worst_case_ms
                                : std::numeric_limits<double>::infinity();
      if (sample.observed_ms > sample.analytical_ms + 1e-9) {
        result.wcrt_dominated = false;
      }
      result.wcrt.push_back(std::move(sample));
    }
  }
  return result;
}

SessionExecutionReport SessionExecutor::Execute(
    const model::Implementation& impl, EventTrace* trace) const {
  return std::move(ExecuteRounds(impl, {options_.faults}, trace).front());
}

std::vector<SessionExecutionReport> SessionExecutor::ExecuteRounds(
    const model::Implementation& impl,
    const std::vector<FaultInjectorConfig>& rounds, EventTrace* trace) const {
  const auto plans = dse::PlanSessions(spec_, augmentation_, impl);
  const dse::RoutedBusNetwork routed =
      dse::BuildRoutedBusNetwork(spec_, impl);

  // Transfer ids (and through them the injector seeds) in plan order:
  // 1, 3, 5, ... over the feasible plans, as one serial pass assigns them.
  std::vector<std::uint64_t> transfer_ids(plans.size(), 0);
  std::uint64_t next_transfer_id = 1;
  for (std::size_t p = 0; p < plans.size(); ++p) {
    if (!plans[p].feasible) continue;
    transfer_ids[p] = next_transfer_id;
    next_transfer_id += 2;
  }

  // One task per (round, plan), never grouped: session lengths are skewed.
  // Each task writes only its own index.
  const std::size_t tasks = rounds.size() * plans.size();
  std::vector<SessionExecution> sessions(tasks);
  std::vector<EventTrace> traces(trace != nullptr ? tasks : 0);
  std::vector<std::exception_ptr> errors(tasks);
  util::ThreadPool::Global().ParallelFor(
      0, tasks, tasks, [&](std::size_t begin, std::size_t end, std::size_t) {
        for (std::size_t t = begin; t < end; ++t) {
          const std::size_t round = t / plans.size(), p = t % plans.size();
          SessionExecution& session = sessions[t];
          if (!plans[p].feasible) {
            session.plan = plans[p];
            session.executed = false;
            session.failure =
                "rejected: no mirrored bandwidth (Eq. 1 diverges)";
            continue;
          }
          try {
            session = ExecuteOne(impl, routed, plans[p], transfer_ids[p],
                                 rounds[round],
                                 trace != nullptr ? &traces[t] : nullptr);
          } catch (...) {
            errors[t] = std::current_exception();
          }
        }
      });

  // Serial merge in (round, plan) order: the trace, then the first error,
  // then the per-round totals.
  for (std::size_t t = 0; t < tasks; ++t) {
    if (trace != nullptr) {
      for (const TraceEvent& e : traces[t].Events()) trace->Record(e);
    }
    if (errors[t]) std::rethrow_exception(errors[t]);
  }
  std::vector<SessionExecutionReport> reports(rounds.size());
  for (std::size_t t = 0; t < tasks; ++t) {
    SessionExecutionReport& report = reports[t / plans.size()];
    SessionExecution& session = sessions[t];
    report.all_completed &= session.completed;
    report.all_wcrt_dominated &= session.wcrt_dominated;
    if (session.executed && session.completed && !session.plan.patterns_local &&
        session.analytical_download_ms > 0.0 &&
        std::isfinite(session.analytical_download_ms)) {
      const double rel = std::abs(session.simulated_download_ms -
                                  session.analytical_download_ms) /
                         session.analytical_download_ms;
      report.max_download_rel_error =
          std::max(report.max_download_rel_error, rel);
    }
    report.total_retransmissions +=
        session.download.retransmissions + session.upload.retransmissions;
    report.total_frames_dropped +=
        session.download.dropped + session.upload.dropped;
    report.total_frames_corrupted +=
        session.download.corrupted + session.upload.corrupted;
    report.sessions.push_back(std::move(session));
  }
  return reports;
}

std::string FormatSessionExecution(const model::Specification& spec,
                                   const SessionExecution& session) {
  std::ostringstream ss;
  ss << spec.Architecture().GetResource(session.plan.ecu).name << ", profile "
     << session.plan.profile_index + 1 << ": ";
  if (!session.executed) {
    ss << "REJECTED (" << session.failure << ")\n";
    return ss.str();
  }
  if (!session.completed) {
    ss << "FAILED (" << session.failure << ")\n";
    return ss.str();
  }
  ss << "completed in " << session.simulated_total_ms << " ms";
  if (!session.plan.patterns_local) {
    ss << "; download " << session.simulated_download_ms << " ms (analytical "
       << session.analytical_download_ms << " ms)";
  }
  if (session.upload.frames_sent > 0) {
    ss << "; upload " << session.simulated_upload_ms << " ms (analytical "
       << session.analytical_upload_ms << " ms)";
  }
  const std::uint64_t retries =
      session.download.retransmissions + session.upload.retransmissions;
  if (retries > 0) ss << "; " << retries << " retransmissions";
  ss << "; WCRT " << (session.wcrt_dominated ? "dominated" : "VIOLATED")
     << "\n";
  return ss.str();
}

}  // namespace bistdse::net
