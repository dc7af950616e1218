// Long-lived diagnosis server: the fleet front end of the PR-7 serving core.
//
// Field ECUs upload their BIST fail data to a central diagnosis host over a
// diagnostic CAN segment. The server models that path end to end in the
// discrete-event network engine: every registered ECU gets an upload carrier
// slot (ECU -> server) and a response carrier slot (server -> ECU) on the
// shared bus; a request's fail data is serialized (serve/wire), segmented
// into frames by net::SegmentedTransfer — with the engine's deterministic
// fault injector judging every frame (loss / corruption / reordering) and
// the transport's bounded retries riding it out — then admitted queries are
// framed into bist::DictQuery batches, fanned out through
// DictionaryStore::DiagnoseBatch on the shared pool against the current
// dictionary generation (serve::VersionedStore, hot-reloadable while
// serving), and the top-k ranking returns to the ECU as a segmented
// response. The delivered ranking is bit-identical to calling DiagnoseBatch
// directly: corrupted frames never acknowledge, so a completed transfer
// implies the intact payload, and scores travel as raw IEEE-754 bits.
//
// Admission and backpressure: the in-flight set (admitted but not yet
// terminal) is bounded by `max_inflight`, with a per-ECU share so one
// flooding ECU cannot starve the rest; releases beyond the bound are
// rejected busy, visible in the stats and the JSONL request trace.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bist/dictionary_store.hpp"
#include "net/engine.hpp"
#include "net/fault_injector.hpp"
#include "net/trace.hpp"
#include "net/transport.hpp"
#include "serve/versioned_store.hpp"

namespace bistdse::serve {

struct DiagnosisServerConfig {
  double bus_bitrate_bps = 500e3;      ///< Diagnostic segment bitrate.
  double slot_period_ms = 1.0;         ///< Carrier period per endpoint slot.
  std::uint32_t payload_bytes = 8;     ///< Carrier payload per frame.
  can::CanId upload_id_base = 0x300;   ///< Upload carrier ids (base + index).
  can::CanId response_id_base = 0x400; ///< Response carrier ids.
  net::TransportConfig transport;      ///< Segmentation / retry / timeout.
  net::FaultInjectorConfig faults;     ///< Frame loss/corruption/reordering.
  std::size_t top_k = 5;
  std::size_t threads = 0;             ///< DiagnoseBatch fan-out (0 = pool).
  std::size_t max_inflight = 64;       ///< Admission bound across all ECUs.
  std::size_t max_batch = 16;          ///< Queries per DiagnoseBatch dispatch.
  double service_time_ms = 0.0;        ///< Modeled diagnosis latency per batch.
  bool trace_frames = false;           ///< Per-frame trace events (large!).
};

enum class RequestStatus : std::uint8_t {
  Pending,         ///< Submitted, release time not reached.
  RejectedBusy,    ///< Admission refused: in-flight bound (terminal).
  Uploading,       ///< Fail-data upload in progress (or waiting for carrier).
  Queued,          ///< Uploaded and decoded, waiting for a batch slot.
  Diagnosing,      ///< In a dispatched DiagnoseBatch.
  Responding,      ///< Ranking reply in transit (or waiting for carrier).
  Answered,        ///< Reply delivered and decoded (terminal).
  UploadFailed,    ///< Upload exhausted retries / timed out (terminal).
  ResponseFailed,  ///< Reply exhausted retries / timed out (terminal).
};

struct RequestOutcome {
  std::uint64_t id = 0;
  std::string ecu;
  RequestStatus status = RequestStatus::Pending;
  /// The ranking decoded from the delivered reply (wire round trip).
  std::vector<bist::DiagnosisCandidate> ranking;
  std::uint32_t generation = 0;  ///< Dictionary generation that diagnosed it.
  double release_ms = 0.0;
  double admitted_ms = 0.0;
  double upload_done_ms = 0.0;
  double answered_ms = 0.0;      ///< Terminal time for failed requests too.
  std::uint64_t upload_bytes = 0;
  std::uint64_t response_bytes = 0;
  net::TransferStats upload;     ///< Per-transfer retry/timeout attribution.
  net::TransferStats response;
};

struct ServerStats {
  std::uint64_t submitted = 0;
  std::uint64_t admitted = 0;
  std::uint64_t rejected_busy = 0;
  std::uint64_t answered = 0;
  std::uint64_t upload_failures = 0;
  std::uint64_t response_failures = 0;
  std::uint64_t unknown_shard = 0;  ///< Answered with an empty ranking.
  std::uint64_t batches = 0;
  std::size_t max_inflight_observed = 0;
  double max_latency_ms = 0.0;    ///< admitted -> answered, over answered.
  double total_latency_ms = 0.0;
};

class DiagnosisServer {
 public:
  DiagnosisServer(bist::DictionaryStore initial,
                  const DiagnosisServerConfig& config = {},
                  net::EventTrace* trace = nullptr);

  /// Enqueues one fail-data upload, released at simulated `release_ms` from
  /// the ECU named by the query's shard key. Endpoints (carrier slots) are
  /// registered on first use, in submit order. Returns the request id.
  /// Must not race Run() (single control thread; Reload may race freely).
  std::uint64_t Submit(bist::DictQuery query, double release_ms);

  /// Drives the bus, the admission queue, and the diagnosis pipeline until
  /// every submitted request reaches a terminal state or simulated time
  /// passes `until_ms`. Resumable: call again (optionally after more
  /// Submits or a Store().Reload()) to continue where it stopped. Returns
  /// the simulated time reached.
  double Run(double until_ms = 1e12);

  bool AllDone() const { return inflight_ == 0 && pending_.empty(); }
  double NowMs() const { return engine_.NowMs(); }

  /// Outcome of request `id` (ids are dense, assigned by Submit).
  const RequestOutcome& Outcome(std::uint64_t id) const;
  std::size_t RequestCount() const { return requests_.size(); }

  const ServerStats& Stats() const { return stats_; }

  /// The hot-reloadable dictionary generations. Reload() here is safe from
  /// a concurrent thread while Run() is serving.
  VersionedStore& Store() { return store_; }
  const VersionedStore& Store() const { return store_; }

  const net::NetworkEngine& Engine() const { return engine_; }

 private:
  struct Request {
    bist::DictQuery query;
    std::vector<std::uint8_t> upload_wire;    ///< Encoded fail-data payload.
    std::vector<std::uint8_t> response_wire;  ///< Encoded ranking payload.
    std::size_t endpoint = 0;
    RequestOutcome outcome;
  };

  /// One ECU's pair of carrier slots plus its queues along the pipeline.
  struct Endpoint {
    std::string ecu;
    net::SlotClientMux upload_mux;
    net::SlotClientMux response_mux;
    std::unique_ptr<net::SegmentedTransfer> upload;
    std::unique_ptr<net::SegmentedTransfer> response;
    std::uint64_t upload_request = 0;
    std::uint64_t response_request = 0;
    std::deque<std::uint64_t> upload_wait;   ///< Admitted, carrier busy.
    std::deque<std::uint64_t> ready;         ///< Decoded, awaiting a batch.
    std::deque<std::uint64_t> respond_wait;  ///< Diagnosed, carrier busy.
    std::size_t inflight = 0;                ///< Non-terminal requests.
  };

  std::size_t EndpointFor(const std::string& ecu);
  std::size_t PerEcuShare() const;
  void Terminal(Request& request, RequestStatus status, double now_ms);
  void AdmitDue(double now_ms);
  void NoticeReload(double now_ms);
  void StartUploads(double now_ms);
  void HarvestUploads(double now_ms);
  bool MaybeDispatchBatch(double now_ms);
  void CompleteBatch(double now_ms);
  void StartResponses(double now_ms);
  void HarvestResponses(double now_ms);
  bool AnyTransferActive() const;
  bool AnyTransferFinished() const;
  void TraceRequest(net::TraceEventKind kind, double now_ms, std::uint64_t id,
                    const std::string& note);

  DiagnosisServerConfig config_;
  VersionedStore store_;
  net::EventTrace* trace_;
  net::FaultInjector injector_;
  net::NetworkEngine engine_;
  net::BusIndex bus_ = 0;

  /// unique_ptr: the engine holds SlotClient* into each endpoint's muxes.
  std::vector<std::unique_ptr<Endpoint>> endpoints_;
  std::map<std::string, std::size_t> endpoint_index_;
  std::vector<Request> requests_;
  /// Submitted, not yet released: (release_ms, id), processed in order.
  std::multimap<double, std::uint64_t> pending_;
  std::size_t inflight_ = 0;
  std::size_t batch_cursor_ = 0;      ///< Round-robin start endpoint.
  std::uint32_t traced_version_ = 0;  ///< Last store version seen by Run().

  /// The one batch in service: ids + results, pinned to its generation
  /// until the service window elapses (this is what drains a rollover).
  bool batch_active_ = false;
  double batch_done_ms_ = 0.0;
  std::vector<std::uint64_t> batch_ids_;
  std::vector<std::vector<bist::DiagnosisCandidate>> batch_results_;
  std::shared_ptr<const Generation> batch_generation_;

  ServerStats stats_;
};

}  // namespace bistdse::serve
