// Diagnosis-server benchmark: fleet fail-data uploads over the simulated
// diagnostic bus, batched DiagnoseBatch fan-out, segmented replies. Reports
// end-to-end request latency percentiles (simulated ms, admission to
// answer) and throughput at 0 %, 1 %, and 5 % injected frame loss, plus a
// mid-run dictionary rollover at the 5 % point, and writes them to
// BENCH_serve.json.
//
// Env: BISTDSE_SERVE_QUERIES (default 96) requests per loss rate.
// Arg: output path (default BENCH_serve.json).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_report.hpp"
#include "bench_util.hpp"
#include "bist/stumps.hpp"
#include "netlist/random_circuit.hpp"
#include "serve/server.hpp"
#include "sim/fault.hpp"

using namespace bistdse;

namespace {

netlist::Netlist BenchCut() {
  netlist::RandomCircuitSpec spec;
  spec.num_inputs = 12;
  spec.num_outputs = 8;
  spec.num_flops = 24;
  spec.num_gates = 260;
  spec.num_hard_blocks = 2;
  spec.hard_block_width = 6;
  spec.seed = 71;
  return netlist::GenerateRandomCircuit(spec);
}

bist::StumpsConfig BenchConfig() {
  bist::StumpsConfig config;
  config.signature_window = 16;
  config.prpg_seed = 0x51;
  return config;
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

}  // namespace

int main(int argc, char** argv) {
  const char* path = argc > 1 ? argv[1] : "BENCH_serve.json";
  bench::PrintHeader(
      "Diagnosis server — fleet uploads over the lossy diagnostic bus",
      "Field-return fail data travels as segmented uploads through the\n"
      "deterministic fault injector, is diagnosed in DiagnoseBatch batches\n"
      "against the current dictionary generation, and the top-k ranking\n"
      "returns as a segmented reply. Every request must be answered at\n"
      "every loss rate; the 5 % point also rolls the dictionary over\n"
      "mid-run (zero dropped requests across the reload).");

  const std::uint64_t num_queries = bench::EnvU64("BISTDSE_SERVE_QUERIES", 96);
  const auto cut = BenchCut();
  const auto config = BenchConfig();
  const auto faults = sim::CollapsedFaults(cut);
  constexpr std::uint64_t kPatterns = 256;

  // Fail data of sampled injected faults — the fleet's upload payloads.
  std::vector<std::vector<bist::FailDatum>> payloads;
  {
    bist::StumpsSession session(cut, config);
    for (std::size_t fi = 0; fi < faults.size() && payloads.size() < 12;
         fi += 67) {
      auto result = session.Run(kPatterns, {}, faults[fi]);
      if (!result.fail_data.empty()) payloads.push_back(std::move(result.fail_data));
    }
  }
  if (payloads.empty()) {
    std::fprintf(stderr, "no failing sessions to serve\n");
    return 1;
  }

  const std::size_t kShards = 3;
  auto make_store = [&] {
    bist::DictionaryStore store;
    for (std::size_t s = 0; s < kShards; ++s) {
      store.Add({"ecu-" + std::to_string(s), "p1"},
                bist::FaultDictionary(cut, config, kPatterns, {}, faults));
    }
    return store;
  };

  bench::Report report("diagnosis_server");
  report.Run().Set("queries", num_queries);
  for (const double loss : {0.0, 0.01, 0.05}) {
    serve::DiagnosisServerConfig server_config;
    server_config.threads = 0;
    server_config.faults.drop_rate = loss;
    server_config.faults.corrupt_rate = loss / 5.0;
    server_config.faults.reorder_rate = loss / 5.0;
    server_config.faults.seed = 7;
    serve::DiagnosisServer server(make_store(), server_config);

    // Pace each ECU's offered load to its carrier (25 % retry headroom).
    std::vector<double> next_release(kShards, 0.0);
    for (std::uint64_t q = 0; q < num_queries; ++q) {
      const std::size_t s = q % kShards;
      const std::uint64_t id = server.Submit(
          {{"ecu-" + std::to_string(s), "p1"}, payloads[q % payloads.size()]},
          next_release[s]);
      const double frames = static_cast<double>(
          (server.Outcome(id).upload_bytes + server_config.payload_bytes - 1) /
          server_config.payload_bytes);
      next_release[s] += 1.25 * frames * server_config.slot_period_ms + 5.0;
    }

    const bool reload_mid_run = loss >= 0.05;
    const auto t0 = std::chrono::steady_clock::now();
    if (reload_mid_run) {
      while (server.Stats().answered < num_queries / 2 && !server.AllDone()) {
        server.Run(server.NowMs() + 50.0);
      }
      server.Store().Reload(make_store());
    }
    server.Run();
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();

    const serve::ServerStats& stats = server.Stats();
    std::vector<double> latencies;
    std::uint64_t retransmissions = 0;
    for (std::uint64_t q = 0; q < num_queries; ++q) {
      const serve::RequestOutcome& outcome = server.Outcome(q);
      retransmissions += outcome.upload.retransmissions +
                         outcome.response.retransmissions;
      if (outcome.status == serve::RequestStatus::Answered) {
        latencies.push_back(outcome.answered_ms - outcome.admitted_ms);
      }
    }
    const std::uint64_t failures =
        stats.upload_failures + stats.response_failures;
    const double p50 = Percentile(latencies, 0.50);
    const double p95 = Percentile(latencies, 0.95);
    const double p99 = Percentile(latencies, 0.99);
    const double simulated_ms = server.NowMs();
    const double rps = 1e3 * static_cast<double>(stats.answered) / simulated_ms;

    std::printf(
        "loss %.0f %%: %llu/%llu answered in %.0f simulated ms (%.3f s "
        "wall, %.0f req/simulated-s) — latency p50 %.1f / p95 %.1f / "
        "p99 %.1f ms, %llu retransmissions, generation v%u\n",
        100.0 * loss, static_cast<unsigned long long>(stats.answered),
        static_cast<unsigned long long>(stats.submitted), simulated_ms, wall,
        rps, p50, p95, p99, static_cast<unsigned long long>(retransmissions),
        server.Store().Version());
    report.AddRow("results")
        .Set("frame_loss", loss)
        .Set("submitted", stats.submitted)
        .Set("answered", stats.answered)
        .Set("rejected_busy", stats.rejected_busy)
        .Set("transfer_failures", failures)
        .Set("retransmissions", retransmissions)
        .Set("generation", server.Store().Version())
        .Set("latency_p50_ms", p50)
        .Set("latency_p95_ms", p95)
        .Set("latency_p99_ms", p99)
        .Set("simulated_ms", simulated_ms)
        .Set("requests_per_simulated_second", rps)
        .Set("wall_seconds", wall);

    // Every request answered at every loss rate and the rollover applied:
    // loss must cost latency, not correctness.
    const std::string at = "[frame_loss=" + bench::JsonValue(loss) + "]";
    report.Equal("answered" + at, stats.answered, stats.submitted);
    report.Equal("rejected_busy" + at, stats.rejected_busy, 0);
    report.Equal("transfer_failures" + at, failures, 0);
    if (reload_mid_run) {
      report.Equal("generation" + at, server.Store().Version(), 1);
    }
  }
  return report.Finish(path);
}
