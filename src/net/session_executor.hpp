// Frame-accurate execution of diagnostic sessions.
//
// The analytical side of the repo (dse::PlanSessions, Eq. 1/Eq. 5,
// can::CanBus WCRT analysis) predicts how long a BIST session takes and
// promises that mirrored transfers leave the certified schedule untouched.
// The SessionExecutor *runs* those sessions in simulated time: it rebuilds
// the implementation's routed bus network (dse::BuildRoutedBusNetwork),
// shuts off the session ECU's functional messages, swaps in their mirrored
// copies (can::MakeMirroredMessages), drives the pattern download and the
// fail-data upload through the segmented transport, and records an event
// trace. The result is an operational cross-check of every analytical
// number we report:
//
//   * simulated download/upload times must land in [q, q + discretization
//     bound] of the Eq.-1 value over the ECU's on-wire slot set,
//   * the observed worst response time of every frame must stay below the
//     analytical WCRT (and mirrored traffic must not move anyone else's),
//   * under injected frame loss, sessions must still complete via the
//     transport's bounded retries.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dse/bus_load.hpp"
#include "dse/session_plan.hpp"
#include "model/implementation.hpp"
#include "model/specification.hpp"
#include "net/engine.hpp"
#include "net/fault_injector.hpp"
#include "net/trace.hpp"
#include "net/transport.hpp"

namespace bistdse::net {

struct SessionExecutorOptions {
  TransportConfig transport;
  FaultInjectorConfig faults;
  bool trace_frames = false;          ///< Per-frame trace events (large!).
};

struct WcrtSample {
  model::ResourceId bus = model::kInvalidId;
  std::string bus_name;
  can::CanId id = 0;
  double observed_ms = 0.0;
  /// +inf when the analytical busy period diverges (trivially dominates).
  double analytical_ms = 0.0;
  bool mirrored = false;
};

struct SessionExecution {
  /// The analytical timeline this execution cross-checks.
  dse::SessionPlan plan;
  bool executed = false;   ///< False when the plan was rejected up front.
  bool completed = false;
  std::string failure;     ///< Why the session did not complete.

  /// Eq.-1 times over the ECU's *on-wire* slot set. Messages consumed by a
  /// co-bound receiver never reach the bus, so this can exceed the plan's
  /// value, which counts every TX message of the ECU.
  double analytical_download_ms = 0.0;
  double analytical_upload_ms = 0.0;
  double simulated_download_ms = 0.0;
  double simulated_upload_ms = 0.0;
  double simulated_total_ms = 0.0;

  TransferStats download;
  TransferStats upload;
  std::vector<WcrtSample> wcrt;
  bool wcrt_dominated = true;
};

struct SessionExecutionReport {
  std::vector<SessionExecution> sessions;
  bool all_completed = true;
  bool all_wcrt_dominated = true;
  /// max |simulated - analytical| / analytical over executed downloads.
  double max_download_rel_error = 0.0;
  std::uint64_t total_retransmissions = 0;
  std::uint64_t total_frames_dropped = 0;
  std::uint64_t total_frames_corrupted = 0;
};

class SessionExecutor {
 public:
  /// `spec` and `augmentation` must outlive the executor.
  SessionExecutor(const model::Specification& spec,
                  const model::BistAugmentation& augmentation,
                  const SessionExecutorOptions& options = {});

  /// Plans every selected BIST session of `impl` and executes each one in
  /// its own discrete-event network (one ECU is shut off at a time, as in
  /// the paper's operational model) under the options' fault config.
  /// Infeasible plans (no mirrored bandwidth) are reported as rejected, not
  /// silently skipped. The one-round case of ExecuteRounds.
  SessionExecutionReport Execute(const model::Implementation& impl,
                                 EventTrace* trace = nullptr) const;

  /// Executes every session once per fault config of `rounds` and returns
  /// one report per config, in order. Sessions share nothing, so each
  /// (round, session) runs as its own task on util::ThreadPool::Global();
  /// reports, transfer ids, injector seeds and `trace` (each session's
  /// events appended in (round, session) order) equal those of executing
  /// them one after another, and an exception is the one the first failing
  /// session in that order throws.
  std::vector<SessionExecutionReport> ExecuteRounds(
      const model::Implementation& impl,
      const std::vector<FaultInjectorConfig>& rounds,
      EventTrace* trace = nullptr) const;

 private:
  SessionExecution ExecuteOne(const model::Implementation& impl,
                              const dse::RoutedBusNetwork& routed,
                              const dse::SessionPlan& plan,
                              std::uint64_t transfer_id_base,
                              const FaultInjectorConfig& faults,
                              EventTrace* trace) const;

  const model::Specification& spec_;
  const model::BistAugmentation& augmentation_;
  SessionExecutorOptions options_;
};

std::string FormatSessionExecution(const model::Specification& spec,
                                   const SessionExecution& session);

}  // namespace bistdse::net
