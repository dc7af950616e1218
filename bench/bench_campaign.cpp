// Campaign-kernel benchmark: throughput of the streaming sim::CampaignRunner
// across its three heaviest consumers — the PRPG drop campaign behind
// profile coverage curves, the batched STUMPS signature pass, and the fault
// dictionary build — at serial / wide / wide+threaded configurations.
// Bit-identity between configurations is a hard gate: the run fails if any
// parallel or wide configuration deviates from the serial reference.
// Speedups are reported but only informational (CI machines may expose a
// pool with zero workers). Results go to BENCH_campaign.json.
//
// Env: BISTDSE_CAMPAIGN_PATTERNS (default 4096) patterns per campaign,
//      BISTDSE_CAMPAIGN_FAULTS   (default 96)   faults in the STUMPS batch.
// Arg: output path (default BENCH_campaign.json).
#include <chrono>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "bench_report.hpp"
#include "bench_util.hpp"
#include "bist/campaign_sources.hpp"
#include "bist/fault_dictionary.hpp"
#include "bist/stumps.hpp"
#include "casestudy/casestudy.hpp"
#include "netlist/random_circuit.hpp"
#include "sim/campaign.hpp"
#include "sim/fault_sim.hpp"
#include "util/thread_pool.hpp"

using namespace bistdse;

namespace {

struct Row {
  std::string campaign;
  std::size_t block_width;
  std::size_t threads;  // 0 = full pool width
  /// Structural shortcuts of the drop campaign; the signature engines read
  /// full propagations and have no such setting.
  std::optional<bool> shortcuts;
  double wall_seconds;
  double patterns_per_second;
  double speedup_vs_serial;
  bool bit_identical;
};

double Seconds(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  const char* path = argc > 1 ? argv[1] : "BENCH_campaign.json";
  bench::PrintHeader(
      "Streaming campaign kernel — patterns/s per consumer",
      "One CampaignRunner serves every BIST campaign; this measures the\n"
      "PRPG drop campaign, the batched STUMPS signature pass and the fault\n"
      "dictionary build at serial, wide, and wide+threaded configurations.\n"
      "Parallel and wide results must be bit-identical to the serial run.");

  const std::uint64_t num_patterns =
      bench::EnvU64("BISTDSE_CAMPAIGN_PATTERNS", 4096);
  const std::size_t num_batch_faults =
      static_cast<std::size_t>(bench::EnvU64("BISTDSE_CAMPAIGN_FAULTS", 96));
  const std::size_t workers = util::ThreadPool::Global().WorkerCount();
  std::printf("pool workers: %zu, patterns: %llu, batch faults: %zu\n\n",
              workers, static_cast<unsigned long long>(num_patterns),
              num_batch_faults);

  const auto cut =
      netlist::GenerateRandomCircuit(casestudy::ScaledCutSpec(1));
  const auto faults = sim::CollapsedFaults(cut);
  const bist::StumpsConfig stumps_config = casestudy::PaperStumpsConfig();

  struct Config {
    std::size_t width, threads;
    bool shortcuts;
  };
  // First row is the PR-5-equivalent baseline: serial, W=1, full event
  // propagation. The rest ablate block width, structural shortcuts and
  // threading independently.
  const Config configs[] = {{1, 1, false}, {4, 1, false}, {4, 1, true},
                            {16, 1, true}, {4, 0, true},  {16, 0, true}};
  // The signature engines: the same (width, threads) pairs, serial first.
  struct Shape {
    std::size_t width, threads;
  };
  const Shape shapes[] = {{1, 1}, {4, 1}, {16, 1}, {4, 0}, {16, 0}};
  std::vector<Row> rows;

  // --- PRPG drop campaign (profile coverage curves) -----------------------
  {
    std::vector<std::uint64_t> reference;
    double serial_wall = 0.0;
    for (const Config& c : configs) {
      // Wide configs run the narrow warm-up the profile generator uses: the
      // drop-heavy head drains faster at W = 1, the sparse survivor tail
      // then sweeps W times fewer. Results stay bit-identical either way.
      sim::CampaignRunner runner(cut, {.block_width = c.width,
                                       .threads = c.threads,
                                       .narrow_warmup_patterns = 512,
                                       .structural_shortcuts = c.shortcuts});
      bist::PrpgSource source(stumps_config, cut.CoreInputs().size());
      std::vector<std::uint64_t> first_detect(faults.size(), UINT64_MAX);
      sim::FirstDetectSink sink(first_detect);
      const auto stats = runner.Run(source, sink,
                                    {.max_patterns = num_patterns,
                                     .track = faults,
                                     .drop_detected = true,
                                     .warmup = true});
      if (reference.empty()) {
        reference = first_detect;
        serial_wall = stats.wall_seconds;
      }
      const bool identical = first_detect == reference;
      rows.push_back({"prpg_drop", c.width, c.threads, c.shortcuts,
                      stats.wall_seconds, stats.PatternsPerSecond(),
                      serial_wall / stats.wall_seconds, identical});
    }
  }

  // --- Batched STUMPS signature pass --------------------------------------
  {
    std::vector<sim::StuckAtFault> batch;
    const std::size_t stride =
        std::max<std::size_t>(1, faults.size() / num_batch_faults);
    for (std::size_t i = 0; i < faults.size() && batch.size() < num_batch_faults;
         i += stride) {
      batch.push_back(faults[i]);
    }

    std::vector<bist::SessionResult> reference;
    double serial_wall = 0.0;
    for (const Shape& c : shapes) {
      bist::StumpsConfig config = stumps_config;
      config.sim_block_width = c.width;
      config.sim_threads = c.threads;
      bist::StumpsSession session(cut, config);
      session.GoldenSignatures(num_patterns, {});  // prime outside the timer
      const auto t0 = std::chrono::steady_clock::now();
      const auto results = session.RunBatch(num_patterns, {}, batch);
      const double wall = Seconds(t0);

      bool identical = true;
      if (reference.empty()) {
        reference = results;
        serial_wall = wall;
      } else {
        for (std::size_t i = 0; i < results.size(); ++i) {
          identical &=
              results[i].window_signatures == reference[i].window_signatures;
        }
      }
      // Throughput counts session-patterns: every fault replays the stream.
      const double session_patterns =
          static_cast<double>(num_patterns) * static_cast<double>(batch.size());
      rows.push_back({"stumps_batch", c.width, c.threads, std::nullopt, wall,
                      session_patterns / wall, serial_wall / wall, identical});
    }
  }

  // --- Fault dictionary build ---------------------------------------------
  {
    std::vector<sim::StuckAtFault> dict_faults = faults;
    if (dict_faults.size() > 256) dict_faults.resize(256);
    const std::uint64_t dict_patterns = std::min<std::uint64_t>(
        num_patterns, 1024);  // windows x two passes — keep the build bounded

    std::unique_ptr<bist::FaultDictionary> reference;
    double serial_wall = 0.0;
    for (const Shape& c : shapes) {
      const auto t0 = std::chrono::steady_clock::now();
      bist::FaultDictionary dict(cut, stumps_config, dict_patterns, {},
                                 dict_faults, c.threads, c.width);
      const double wall = Seconds(t0);

      bool identical = true;
      if (!reference) {
        reference = std::make_unique<bist::FaultDictionary>(std::move(dict));
        serial_wall = wall;
      } else {
        for (std::size_t f = 0; f < dict_faults.size() && identical; ++f) {
          const auto rows_f = dict.WindowsOf(f);
          const auto ref_f = reference->WindowsOf(f);
          for (std::size_t w = 0; w < rows_f.size(); ++w) {
            identical &= rows_f[w] == ref_f[w];
          }
        }
      }
      rows.push_back({"dictionary", c.width, c.threads, std::nullopt, wall,
                      static_cast<double>(dict_patterns) / wall,
                      serial_wall / wall, identical});
    }
  }

  bench::Report report("campaign");
  report.Run().Set("patterns", num_patterns);
  for (const Row& r : rows) {
    const char* shortcuts = !r.shortcuts   ? ""
                            : *r.shortcuts ? " shortcuts=on"
                                           : " shortcuts=off";
    std::printf("%-12s W=%-2zu threads=%zu%-14s: %8.3f s, "
                "%12.0f patterns/s, speedup %.2fx%s\n",
                r.campaign.c_str(), r.block_width, r.threads, shortcuts,
                r.wall_seconds,
                r.patterns_per_second, r.speedup_vs_serial,
                r.bit_identical ? "" : "  [MISMATCH]");
    bench::Row& row = report.AddRow("results")
                          .Set("campaign", r.campaign)
                          .Set("block_width", r.block_width)
                          .Set("threads", r.threads);
    if (r.shortcuts) row.Set("shortcuts", *r.shortcuts);
    row.Set("wall_seconds", r.wall_seconds)
        .Set("patterns_per_second", r.patterns_per_second)
        .Set("speedup_vs_serial", r.speedup_vs_serial)
        .Set("bit_identical", r.bit_identical);
    // Hard gate: bit-identity across every configuration. Speedups stay
    // informational — a zero-worker pool legitimately runs everything inline.
    report.Equal("bit_identical[" + r.campaign +
                     " W=" + std::to_string(r.block_width) +
                     " threads=" + std::to_string(r.threads) + shortcuts + "]",
                 r.bit_identical, true);
  }
  return report.Finish(path);
}
