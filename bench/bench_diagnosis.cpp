// Diagnosis accuracy and fleet-scale serving throughput.
//
// Part 1 (accuracy, extension study): injects sampled stuck-at defects, runs
// the BIST session, diagnoses from the failing strong-window signatures, and
// reports how often the true defect is recovered — quantifying the paper's
// claim that a few signatures suffice for chip-level diagnosis, and ablating
// the strong-window design (per-window MISR reset, Cook et al. ETS'12)
// against a plain MISR chain.
//
// Part 2 (fleet load): the serving path many field returns take — one
// precomputed fault dictionary artifact, reopened per process (owned Load vs
// zero-copy mmap, open time reported separately from first-query time),
// sharded into a DictionaryStore, and hit with query batches across thread
// counts. Baseline is per-query SignatureDiagnosis re-simulation; the run
// gates on the dictionary batch path clearing 10x its queries/s.
//
// Env: BISTDSE_DIAG_PATTERNS (default 384), BISTDSE_DIAG_SAMPLES (default 30),
//      BISTDSE_DICT_FAULTS (default 400), BISTDSE_DICT_QUERIES (default 512),
//      BISTDSE_DICT_RESIM_QUERIES (default 3), BISTDSE_DICT_SHARDS (default 4).
// Arg: output path (default BENCH_diagnosis.json).
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_report.hpp"
#include "bench_util.hpp"
#include "bist/diagnosis.hpp"
#include "bist/diagnosis_eval.hpp"
#include "bist/dictionary_store.hpp"
#include "casestudy/casestudy.hpp"
#include "netlist/random_circuit.hpp"
#include "util/thread_pool.hpp"

using namespace bistdse;

namespace {

double Seconds(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

std::uint64_t FileBytes(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) return 0;
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fclose(f);
  return size > 0 ? static_cast<std::uint64_t>(size) : 0;
}

}  // namespace

int main(int argc, char** argv) {
  const char* out_path = argc > 1 ? argv[1] : "BENCH_diagnosis.json";
  bench::PrintHeader(
      "Diagnosis — accuracy and fleet-scale serving throughput",
      "Inject faults, run BIST, diagnose from failing window signatures;\n"
      "then serve dictionary query batches (load vs mmap, sharded store)\n"
      "against the per-query re-simulation baseline.");

  auto spec = casestudy::ScaledCutSpec(3);
  spec.num_gates = 1500;
  spec.num_flops = 128;
  const auto cut = netlist::GenerateRandomCircuit(spec);

  bist::DiagnosisEvalOptions options;
  options.num_random_patterns = bench::EnvU64("BISTDSE_DIAG_PATTERNS", 384);
  options.top_k = 5;
  const auto samples = bench::EnvU64("BISTDSE_DIAG_SAMPLES", 30);
  options.max_samples = samples;

  const auto faults = sim::CollapsedFaults(cut);
  options.sample_stride = std::max<std::size_t>(1, faults.size() / samples);
  bench::Report report("diagnosis");
  report.Run().Set("patterns", options.num_random_patterns);

  std::printf("\nCUT: %zu gates, %zu collapsed faults; session: %llu random "
              "patterns\n\n",
              cut.CombinationalGateCount(), faults.size(),
              static_cast<unsigned long long>(options.num_random_patterns));

  // --- Part 1: accuracy ablation ------------------------------------------
  std::printf("  window | MISR mode | injected | escaped | tied1 | top-5 | "
              "mean rank\n");
  // "tied1" counts the true fault tying the best score — with a plain MISR
  // chain nearly all candidates tie, so compare top-5 and mean rank there.
  std::printf("  -------+-----------+----------+---------+-------+-------+"
              "----------\n");

  double strong32_top5 = 0.0, plain32_top5 = 0.0;
  for (const std::uint32_t window : {8u, 32u}) {
    for (const bool strong : {true, false}) {
      if (window == 8 && !strong) continue;  // redundant with window 32
      bist::StumpsConfig config = casestudy::PaperStumpsConfig();
      config.signature_window = window;
      config.reset_misr_per_window = strong;
      const auto acc = bist::EvaluateDiagnosisAccuracy(cut, config, options);
      std::printf("  %6u | %-9s | %8zu | %7zu | %4.0f%% | %4.0f%% | %8.1f\n",
                  window, strong ? "strong" : "plain", acc.injected,
                  acc.escaped, 100.0 * acc.Top1Rate(), 100.0 * acc.TopkRate(),
                  acc.mean_rank);
      report.AddRow("accuracy")
          .Set("window", window)
          .Set("strong", strong)
          .Set("injected", acc.injected)
          .Set("escaped", acc.escaped)
          .Set("top1", acc.Top1Rate())
          .Set("top5", acc.TopkRate())
          .Set("mean_rank", acc.mean_rank);
      if (window == 32 && strong) strong32_top5 = acc.TopkRate();
      if (window == 32 && !strong) plain32_top5 = acc.TopkRate();
    }
  }

  // --- Part 2: fleet-scale dictionary serving -----------------------------
  const std::size_t workers = util::ThreadPool::Global().WorkerCount();
  bist::StumpsConfig dict_config = casestudy::PaperStumpsConfig();
  const std::uint64_t dict_patterns = options.num_random_patterns;

  std::vector<sim::StuckAtFault> dict_faults;
  {
    const std::size_t want = std::max<std::uint64_t>(
        1, bench::EnvU64("BISTDSE_DICT_FAULTS", 400));
    const std::size_t stride = std::max<std::size_t>(1, faults.size() / want);
    for (std::size_t f = 0; f < faults.size() && dict_faults.size() < want;
         f += stride) {
      dict_faults.push_back(faults[f]);
    }
  }

  std::printf("\nfleet serving: %zu dictionary faults, %zu pool workers\n",
              dict_faults.size(), workers);

  const auto t_build = std::chrono::steady_clock::now();
  bist::FaultDictionary built(cut, dict_config, dict_patterns, {},
                              dict_faults);
  const double build_s = Seconds(t_build);
  const std::string artifact = "bench_diagnosis.fdict";
  built.Save(artifact);
  const std::uint64_t artifact_bytes = FileBytes(artifact);
  std::printf("  build: %.3f s (%u windows), artifact %llu bytes\n", build_s,
              built.WindowCount(),
              static_cast<unsigned long long>(artifact_bytes));

  // Open paths: owned copy vs zero-copy mapping. Map's open time excludes
  // the payload by construction — the first query is what faults pages in,
  // so it is timed separately.
  const auto t_load = std::chrono::steady_clock::now();
  const auto loaded = bist::FaultDictionary::Load(artifact);
  const double load_s = Seconds(t_load);
  const auto t_map = std::chrono::steady_clock::now();
  const auto mapped = bist::FaultDictionary::Map(artifact);
  const double map_s = Seconds(t_map);

  // Query mix: fail data of sampled injected faults.
  std::vector<std::vector<bist::FailDatum>> fail_sets;
  {
    bist::StumpsSession session(cut, dict_config);
    for (std::size_t f = 0; f < dict_faults.size() && fail_sets.size() < 16;
         f += std::max<std::size_t>(1, dict_faults.size() / 16)) {
      auto result = session.Run(dict_patterns, {}, dict_faults[f]);
      if (!result.fail_data.empty()) {
        fail_sets.push_back(std::move(result.fail_data));
      }
    }
  }
  if (fail_sets.empty()) {
    std::fprintf(stderr, "no failing sessions — cannot benchmark serving\n");
    return 1;
  }

  const auto t_first = std::chrono::steady_clock::now();
  (void)mapped.Diagnose(fail_sets.front(), 5);
  const double map_first_query_s = Seconds(t_first);
  std::printf("  open: load %.3f ms (copy), map %.3f ms + first query "
              "%.3f ms (zero-copy)\n",
              1e3 * load_s, 1e3 * map_s, 1e3 * map_first_query_s);

  // Baseline: per-query SignatureDiagnosis re-simulates the whole session
  // per candidate set — the pre-dictionary serving cost.
  const std::size_t resim_queries = std::max<std::uint64_t>(
      1, bench::EnvU64("BISTDSE_DICT_RESIM_QUERIES", 3));
  bist::SignatureDiagnosis resim(cut, dict_config, dict_patterns, {});
  const auto t_resim = std::chrono::steady_clock::now();
  for (std::size_t q = 0; q < resim_queries; ++q) {
    (void)resim.Diagnose(fail_sets[q % fail_sets.size()], dict_faults, 5);
  }
  const double resim_s = Seconds(t_resim);
  const double resim_qps = static_cast<double>(resim_queries) / resim_s;
  std::printf("  re-simulation baseline: %zu queries in %.3f s "
              "(%.1f queries/s)\n",
              resim_queries, resim_s, resim_qps);
  report.AddRow("fleet")
      .Set("dict_faults", dict_faults.size())
      .Set("windows", built.WindowCount())
      .Set("build_seconds", build_s)
      .Set("artifact_bytes", artifact_bytes)
      .Set("load_seconds", load_s)
      .Set("map_seconds", map_s)
      .Set("map_first_query_seconds", map_first_query_s)
      .Set("resim_queries_per_second", resim_qps);

  // Sharded batch serving across thread counts.
  const std::size_t num_shards =
      std::max<std::uint64_t>(1, bench::EnvU64("BISTDSE_DICT_SHARDS", 4));
  const std::size_t num_queries =
      std::max<std::uint64_t>(1, bench::EnvU64("BISTDSE_DICT_QUERIES", 512));
  bist::DictionaryStore store;
  for (std::size_t s = 0; s < num_shards; ++s) {
    store.AddFromFile({"ecu-" + std::to_string(s), "p1"}, artifact,
                      /*mapped=*/true);
  }
  std::vector<bist::DictQuery> queries;
  queries.reserve(num_queries);
  for (std::size_t q = 0; q < num_queries; ++q) {
    queries.push_back({{"ecu-" + std::to_string(q % num_shards), "p1"},
                       fail_sets[q % fail_sets.size()]});
  }

  double best_qps = 0.0;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{0}}) {
    const auto t0 = std::chrono::steady_clock::now();
    const auto results = store.DiagnoseBatch(queries, 5, threads);
    const double wall = Seconds(t0);
    const double qps = static_cast<double>(results.size()) / wall;
    best_qps = std::max(best_qps, qps);
    report.AddRow("fleet.batch")
        .Set("shards", num_shards)
        .Set("threads", threads)
        .Set("queries", results.size())
        .Set("wall_seconds", wall)
        .Set("queries_per_second", qps)
        .Set("speedup_vs_resim", qps / resim_qps);
    std::printf("  batch: %zu shards, threads=%zu: %zu queries in %.3f s "
                "(%.0f queries/s, %.0fx vs re-sim)\n",
                num_shards, threads, results.size(), wall, qps,
                qps / resim_qps);
  }

  std::remove(artifact.c_str());

  // Strong windows must diagnose at least as well as a plain MISR chain and
  // reach 70 % top-5, and the dictionary batch path must clear 10x the
  // re-simulation queries/s.
  report.AtLeast("accuracy_ok.top5_vs_plain[window=32]", strong32_top5,
                 plain32_top5);
  report.AtLeast("accuracy_ok.top5[window=32]", strong32_top5, 0.7);
  report.AtLeast("speedup_ok", best_qps / resim_qps, 10.0);
  return report.Finish(out_path);
}
