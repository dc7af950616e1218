#include "serve/server.hpp"

#include <algorithm>
#include <stdexcept>

#include "serve/wire.hpp"

namespace bistdse::serve {

namespace {

/// Engine advance cap while transfers are in flight: a timed-out transfer
/// stops producing frame outcomes, so the stop predicate alone cannot end
/// the engine call — the chunk bound guarantees the harvest loop runs.
constexpr double kChunkMs = 50.0;

}  // namespace

DiagnosisServer::DiagnosisServer(bist::DictionaryStore initial,
                                 const DiagnosisServerConfig& config,
                                 net::EventTrace* trace)
    : config_(config),
      store_(std::move(initial)),
      trace_(trace),
      injector_(config.faults),
      engine_(&injector_, trace, config.trace_frames) {
  bus_ = engine_.AddBus("diag", config_.bus_bitrate_bps);
  traced_version_ = store_.Version();
}

std::size_t DiagnosisServer::EndpointFor(const std::string& ecu) {
  const auto it = endpoint_index_.find(ecu);
  if (it != endpoint_index_.end()) return it->second;
  const std::size_t index = endpoints_.size();
  auto endpoint = std::make_unique<Endpoint>();
  endpoint->ecu = ecu;
  // Slots registered mid-run must release in the engine's future.
  const double first_release = engine_.NowMs() + config_.slot_period_ms;
  const auto id = static_cast<can::CanId>(index);
  net::PeriodicSlot up;
  up.message = {.name = "up:" + ecu,
                .id = config_.upload_id_base + id,
                .payload_bytes = config_.payload_bytes,
                .period_ms = config_.slot_period_ms};
  up.path = {bus_};
  up.hop_ids = {config_.upload_id_base + id};
  up.first_release_ms = first_release;
  up.client = &endpoint->upload_mux;
  engine_.AddSlot(std::move(up));
  net::PeriodicSlot down;
  down.message = {.name = "down:" + ecu,
                  .id = config_.response_id_base + id,
                  .payload_bytes = config_.payload_bytes,
                  .period_ms = config_.slot_period_ms};
  down.path = {bus_};
  down.hop_ids = {config_.response_id_base + id};
  down.first_release_ms = first_release;
  down.client = &endpoint->response_mux;
  engine_.AddSlot(std::move(down));
  endpoints_.push_back(std::move(endpoint));
  endpoint_index_.emplace(ecu, index);
  return index;
}

std::size_t DiagnosisServer::PerEcuShare() const {
  if (endpoints_.empty()) return config_.max_inflight;
  return std::max<std::size_t>(1, config_.max_inflight / endpoints_.size());
}

std::uint64_t DiagnosisServer::Submit(bist::DictQuery query,
                                      double release_ms) {
  const std::uint64_t id = requests_.size();
  Request request;
  request.endpoint = EndpointFor(query.shard.ecu);
  request.upload_wire = wire::EncodeQuery(query);
  request.outcome.id = id;
  request.outcome.ecu = query.shard.ecu;
  request.outcome.release_ms = release_ms;
  request.outcome.upload_bytes = request.upload_wire.size();
  request.query = std::move(query);
  requests_.push_back(std::move(request));
  pending_.emplace(release_ms, id);
  ++stats_.submitted;
  return id;
}

const RequestOutcome& DiagnosisServer::Outcome(std::uint64_t id) const {
  return requests_.at(id).outcome;
}

void DiagnosisServer::TraceRequest(net::TraceEventKind kind, double now_ms,
                                   std::uint64_t id,
                                   const std::string& note) {
  if (trace_ == nullptr) return;
  trace_->Record({now_ms, kind, "diag", 0, id, 0, note});
}

void DiagnosisServer::Terminal(Request& request, RequestStatus status,
                               double now_ms) {
  request.outcome.status = status;
  request.outcome.answered_ms = now_ms;
  if (status != RequestStatus::RejectedBusy) {
    --inflight_;
    --endpoints_[request.endpoint]->inflight;
  }
}

void DiagnosisServer::AdmitDue(double now_ms) {
  while (!pending_.empty() && pending_.begin()->first <= now_ms) {
    const std::uint64_t id = pending_.begin()->second;
    pending_.erase(pending_.begin());
    Request& request = requests_[id];
    Endpoint& endpoint = *endpoints_[request.endpoint];
    if (inflight_ >= config_.max_inflight ||
        endpoint.inflight >= PerEcuShare()) {
      request.outcome.status = RequestStatus::RejectedBusy;
      request.outcome.answered_ms = now_ms;
      ++stats_.rejected_busy;
      TraceRequest(net::TraceEventKind::RequestRejected, now_ms, id,
                   endpoint.ecu + ": inflight bound");
      continue;
    }
    request.outcome.status = RequestStatus::Uploading;
    request.outcome.admitted_ms = now_ms;
    ++inflight_;
    ++endpoint.inflight;
    ++stats_.admitted;
    stats_.max_inflight_observed =
        std::max(stats_.max_inflight_observed, inflight_);
    endpoint.upload_wait.push_back(id);
    TraceRequest(net::TraceEventKind::RequestAdmitted, now_ms, id,
                 endpoint.ecu);
  }
}

void DiagnosisServer::NoticeReload(double now_ms) {
  const std::uint32_t version = store_.Version();
  if (version == traced_version_) return;
  TraceRequest(net::TraceEventKind::DictReload, now_ms, version,
               "generation v" + std::to_string(traced_version_) + " -> v" +
                   std::to_string(version));
  traced_version_ = version;
}

void DiagnosisServer::StartUploads(double now_ms) {
  for (auto& endpoint : endpoints_) {
    if (endpoint->upload != nullptr || endpoint->upload_wait.empty()) {
      continue;
    }
    const std::uint64_t id = endpoint->upload_wait.front();
    endpoint->upload_wait.pop_front();
    Request& request = requests_[id];
    endpoint->upload = std::make_unique<net::SegmentedTransfer>(
        2 * id + 1, "upload#" + std::to_string(id) + "@" + endpoint->ecu,
        request.upload_wire.size(), config_.transport, trace_);
    endpoint->upload_request = id;
    endpoint->upload->Begin(now_ms);
    endpoint->upload_mux.active = endpoint->upload.get();
  }
}

void DiagnosisServer::HarvestUploads(double now_ms) {
  for (auto& endpoint : endpoints_) {
    if (endpoint->upload == nullptr || !endpoint->upload->Finished()) {
      continue;
    }
    const std::uint64_t id = endpoint->upload_request;
    Request& request = requests_[id];
    request.outcome.upload = endpoint->upload->Stats();
    const bool done = endpoint->upload->Done();
    const double complete_ms = endpoint->upload->CompleteMs();
    endpoint->upload_mux.active = nullptr;
    endpoint->upload.reset();
    if (!done) {
      ++stats_.upload_failures;
      Terminal(request, RequestStatus::UploadFailed, now_ms);
      continue;
    }
    // The transport retransmits every lost/corrupted frame, so a completed
    // transfer delivered the payload intact: decode what came off the wire
    // and diagnose *that* (full round trip, not the submitted object).
    request.query = wire::DecodeQuery(request.upload_wire);
    request.outcome.status = RequestStatus::Queued;
    request.outcome.upload_done_ms = complete_ms;
    endpoint->ready.push_back(id);
  }
}

bool DiagnosisServer::MaybeDispatchBatch(double now_ms) {
  if (batch_active_ || endpoints_.empty()) return false;
  batch_ids_.clear();
  // Round-robin across ECUs, one query per endpoint per pass, so a deep
  // queue at one ECU cannot monopolize the diagnosis station.
  std::size_t idle_passes = 0;
  std::size_t cursor = batch_cursor_;
  while (batch_ids_.size() < config_.max_batch &&
         idle_passes < endpoints_.size()) {
    Endpoint& endpoint = *endpoints_[cursor];
    cursor = (cursor + 1) % endpoints_.size();
    if (endpoint.ready.empty()) {
      ++idle_passes;
      continue;
    }
    idle_passes = 0;
    batch_ids_.push_back(endpoint.ready.front());
    endpoint.ready.pop_front();
  }
  if (batch_ids_.empty()) return false;
  batch_cursor_ = cursor;

  batch_generation_ = store_.Acquire();
  std::vector<bist::DictQuery> queries;
  queries.reserve(batch_ids_.size());
  for (const std::uint64_t id : batch_ids_) {
    requests_[id].outcome.status = RequestStatus::Diagnosing;
    queries.push_back(requests_[id].query);
  }
  batch_results_ = batch_generation_->store.DiagnoseBatch(
      queries, config_.top_k, config_.threads);
  batch_active_ = true;
  batch_done_ms_ = now_ms + config_.service_time_ms;
  ++stats_.batches;
  TraceRequest(net::TraceEventKind::BatchDispatched, now_ms, stats_.batches,
               "n=" + std::to_string(batch_ids_.size()) + " gen=v" +
                   std::to_string(batch_generation_->version));
  return true;
}

void DiagnosisServer::CompleteBatch(double now_ms) {
  if (!batch_active_ || now_ms < batch_done_ms_) return;
  for (std::size_t i = 0; i < batch_ids_.size(); ++i) {
    const std::uint64_t id = batch_ids_[i];
    Request& request = requests_[id];
    if (batch_generation_->store.Find(request.query.shard) == nullptr) {
      ++stats_.unknown_shard;
    }
    request.response_wire = wire::EncodeRanking(batch_results_[i]);
    request.outcome.generation = batch_generation_->version;
    request.outcome.response_bytes = request.response_wire.size();
    request.outcome.status = RequestStatus::Responding;
    endpoints_[request.endpoint]->respond_wait.push_back(id);
  }
  batch_ids_.clear();
  batch_results_.clear();
  // Unpin the dictionary generation: after a rollover, the last batch to
  // release its pointer is what lets VersionedStore::PreviousDrained() flip.
  batch_generation_.reset();
  batch_active_ = false;
}

void DiagnosisServer::StartResponses(double now_ms) {
  for (auto& endpoint : endpoints_) {
    if (endpoint->response != nullptr || endpoint->respond_wait.empty()) {
      continue;
    }
    const std::uint64_t id = endpoint->respond_wait.front();
    endpoint->respond_wait.pop_front();
    Request& request = requests_[id];
    endpoint->response = std::make_unique<net::SegmentedTransfer>(
        2 * id + 2, "reply#" + std::to_string(id) + "@" + endpoint->ecu,
        request.response_wire.size(), config_.transport, trace_);
    endpoint->response_request = id;
    endpoint->response->Begin(now_ms);
    endpoint->response_mux.active = endpoint->response.get();
  }
}

void DiagnosisServer::HarvestResponses(double now_ms) {
  for (auto& endpoint : endpoints_) {
    if (endpoint->response == nullptr || !endpoint->response->Finished()) {
      continue;
    }
    const std::uint64_t id = endpoint->response_request;
    Request& request = requests_[id];
    request.outcome.response = endpoint->response->Stats();
    const bool done = endpoint->response->Done();
    const double complete_ms = endpoint->response->CompleteMs();
    endpoint->response_mux.active = nullptr;
    endpoint->response.reset();
    if (!done) {
      ++stats_.response_failures;
      Terminal(request, RequestStatus::ResponseFailed, now_ms);
      continue;
    }
    request.outcome.ranking = wire::DecodeRanking(request.response_wire);
    Terminal(request, RequestStatus::Answered, complete_ms);
    ++stats_.answered;
    const double latency_ms = complete_ms - request.outcome.admitted_ms;
    stats_.max_latency_ms = std::max(stats_.max_latency_ms, latency_ms);
    stats_.total_latency_ms += latency_ms;
    TraceRequest(net::TraceEventKind::RequestAnswered, complete_ms, id,
                 endpoint->ecu + ": " +
                     std::to_string(request.outcome.ranking.size()) +
                     " candidates, gen=v" +
                     std::to_string(request.outcome.generation));
  }
}

bool DiagnosisServer::AnyTransferActive() const {
  for (const auto& endpoint : endpoints_) {
    if (endpoint->upload != nullptr || endpoint->response != nullptr) {
      return true;
    }
  }
  return false;
}

bool DiagnosisServer::AnyTransferFinished() const {
  for (const auto& endpoint : endpoints_) {
    if (endpoint->upload != nullptr && endpoint->upload->Finished()) {
      return true;
    }
    if (endpoint->response != nullptr && endpoint->response->Finished()) {
      return true;
    }
  }
  return false;
}

double DiagnosisServer::Run(double until_ms) {
  for (;;) {
    const double now_ms = engine_.NowMs();
    NoticeReload(now_ms);
    AdmitDue(now_ms);
    HarvestUploads(now_ms);
    HarvestResponses(now_ms);
    // Service the diagnosis station; with service_time_ms == 0 several
    // batches can clear in the same tick.
    for (;;) {
      CompleteBatch(now_ms);
      if (batch_active_) break;  // Still serving a future completion.
      if (!MaybeDispatchBatch(now_ms)) break;
      if (now_ms < batch_done_ms_) break;
    }
    StartUploads(now_ms);
    StartResponses(now_ms);
    if (AllDone() || now_ms >= until_ms) return now_ms;

    double wake_ms = until_ms;
    if (!pending_.empty()) {
      wake_ms = std::min(wake_ms, std::max(pending_.begin()->first, now_ms));
    }
    if (batch_active_) wake_ms = std::min(wake_ms, batch_done_ms_);
    const bool busy = AnyTransferActive();
    if (busy) wake_ms = std::min(wake_ms, now_ms + kChunkMs);
    if (!busy && wake_ms <= now_ms) {
      // No transfer, no pending release, no batch deadline in the future:
      // nothing can make progress, so bail instead of spinning (the caller
      // sees the stuck requests as non-terminal outcomes).
      return now_ms;
    }
    engine_.Run(wake_ms, [this] { return AnyTransferFinished(); });
  }
}

}  // namespace bistdse::serve
