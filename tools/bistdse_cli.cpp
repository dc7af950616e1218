// bistdse command-line front end.
//
//   bistdse_cli explore   — run the DSE on a case study, export the front
//   bistdse_cli corpus    — sweep generated topology families through
//                           DSE + adversarial session campaigns
//   bistdse_cli profiles  — generate BIST profiles for a synthetic CUT
//   bistdse_cli diagnose  — measure diagnosis accuracy on a synthetic CUT
//   bistdse_cli stumps    — batch faulty STUMPS sessions on a synthetic CUT
//   bistdse_cli dict      — build / query / serve fault-dictionary artifacts
//   bistdse_cli plan      — session timelines for a saved implementation
//
// Examples:
//   bistdse_cli explore --evals 50000 --csv front.csv --report 3
//   bistdse_cli explore --future --evals 20000
//   bistdse_cli profiles --prps 500,1000,5000 --seed 7
//   bistdse_cli diagnose --patterns 1024 --samples 50
//   bistdse_cli stumps --patterns 2048 --faults 64 --threads 0
//   bistdse_cli dict build --seed 3 --patterns 512 --out cut.fdict
//   bistdse_cli dict query --in cut.fdict --seed 3 --mmap --samples 20
//   bistdse_cli dict serve --in cut.fdict --seed 3 --shards 4 --queries 256
//
// Run with no arguments for every command's flags (the tables at the end of
// this file).
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "arch/corpus.hpp"
#include "bist/diagnosis_eval.hpp"
#include "bist/dictionary_store.hpp"
#include "bist/profile_generator.hpp"
#include "casestudy/casestudy.hpp"
#include "dse/parallel.hpp"
#include "dse/partial_networking.hpp"
#include "dse/session_plan.hpp"
#include "dse/report.hpp"  // WriteFrontCsv, DescribeImplementation, SummarizeFront
#include "flags.hpp"
#include "model/spec_io.hpp"
#include "net/session_executor.hpp"
#include "serve/server.hpp"
#include "util/parse.hpp"

using namespace bistdse;
using tools::Flags;

namespace {

constexpr std::string_view kProgram = "bistdse_cli";

/// Runs a check of values the flag parser cannot judge alone (a --prps list,
/// a config's Validate(), a scaled byte count, the MOEA settings an
/// exploration validates); an unusable value exits 2 with the message
/// naming the flag or field.
template <typename Parse>
auto ParseOrExit(Parse parse) {
  try {
    return parse();
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    std::exit(2);
  }
}

/// Parse-time validation of --block-width: reject unsupported widths with a
/// message naming the value and the supported set, instead of letting the
/// first DispatchBlockWidth deep inside a campaign throw mid-run.
std::size_t BlockWidthFlag(const Flags& flags, std::uint64_t fallback) {
  const std::uint64_t w = flags.U64("block-width", fallback);
  if (!sim::IsSupportedBlockWidth(w)) {
    std::fprintf(stderr, "invalid --block-width %llu (supported: %s)\n",
                 static_cast<unsigned long long>(w),
                 sim::SupportedBlockWidthList().c_str());
    std::exit(2);
  }
  return static_cast<std::size_t>(w);
}

/// The paper's STUMPS configuration with --window applied, validated at
/// parse time: a window the engines reject (0) exits 2 naming the field.
bist::StumpsConfig SessionConfigFlags(const Flags& flags) {
  bist::StumpsConfig config = casestudy::PaperStumpsConfig();
  config.signature_window = flags.U32("window", 32);
  ParseOrExit([&] {
    config.Validate();
    return 0;
  });
  return config;
}

// --simulate-sessions: frame-accurate replay of every planned BIST session
// on the implementation's routed bus network, cross-checked against the
// analytical Eq.-1 / WCRT numbers. Returns 0 when every session completed
// and no frame exceeded its analytical worst-case response time.
int SimulateSessions(const model::Specification& spec,
                     const model::BistAugmentation& augmentation,
                     const model::Implementation& impl, const Flags& flags) {
  net::SessionExecutorOptions options;
  options.faults.drop_rate = flags.Real("frame-loss", 0.0);
  options.faults.seed = flags.U64("seed", 1);
  net::SessionExecutor executor(spec, augmentation, options);
  net::EventTrace trace;
  const bool want_trace = flags.Has("trace-out");
  const auto report = executor.Execute(impl, want_trace ? &trace : nullptr);
  for (const auto& session : report.sessions) {
    std::printf("%s", net::FormatSessionExecution(spec, session).c_str());
  }
  std::printf(
      "simulated %zu sessions (frame loss %.2f %%): %s, wcrt %s, "
      "max download error %.2f %%, %llu retransmissions "
      "(%llu dropped, %llu corrupted)\n",
      report.sessions.size(), 100.0 * options.faults.drop_rate,
      report.all_completed ? "all completed" : "INCOMPLETE",
      report.all_wcrt_dominated ? "dominated" : "EXCEEDED",
      100.0 * report.max_download_rel_error,
      static_cast<unsigned long long>(report.total_retransmissions),
      static_cast<unsigned long long>(report.total_frames_dropped),
      static_cast<unsigned long long>(report.total_frames_corrupted));
  if (want_trace) {
    const std::string path = flags.Str("trace-out", "trace.jsonl");
    std::ofstream out(path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return 1;
    }
    trace.WriteJsonl(out);
    std::printf("event trace (%zu events) written to %s\n",
                trace.Events().size(), path.c_str());
  }
  return report.all_completed && report.all_wcrt_dominated ? 0 : 1;
}

int RunExplore(const Flags& flags) {
  casestudy::CaseStudy cs;
  if (flags.Has("spec")) {
    try {
      auto parsed = model::ParseSpecFile(flags.Str("spec", ""));
      cs.augmentation = parsed.Augment();
      cs.spec = std::move(parsed.spec);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "explore: %s\n", e.what());
      return 2;
    }
  } else {
    cs = flags.Has("future") ? casestudy::BuildFutureCaseStudy()
                             : casestudy::BuildCaseStudy();
  }
  dse::ExplorationConfig config;
  config.evaluations = flags.U64("evals", 20000);
  config.population_size = flags.U64("pop", 100);
  config.seed = flags.U64("seed", 1);
  config.mutation_rate = flags.Real("mutation-rate", -1.0);
  config.threads = flags.U64("threads", 0);
  if (flags.Has("algorithm")) {
    const std::string name = flags.Str("algorithm", "nsga2");
    const auto kind = moea::ParseAlgorithmName(name);
    if (!kind) {
      std::fprintf(stderr, "unknown --algorithm: %s\n", name.c_str());
      return 2;
    }
    config.algorithm = *kind;
  }

  const dse::ExplorationResult result = ParseOrExit([&] {
    return dse::ExploreParallel(cs.spec, cs.augmentation, config,
                                flags.U64("islands", 1));
  });
  std::printf("%s: %zu evaluations (%zu memoized, %llu decodes, "
              "%llu infeasible) in %.1f s -> %zu Pareto-optimal "
              "implementations\n",
              moea::AlgorithmName(config.algorithm), result.evaluations,
              result.eval_cache_hits,
              static_cast<unsigned long long>(result.decoder_stats.decodes),
              static_cast<unsigned long long>(result.decoder_stats.infeasible),
              result.wall_seconds, result.pareto.size());
  std::printf("%s", dse::SummarizeFront(result,
                                        flags.Real("min-quality", 80.0))
                        .c_str());

  if (flags.Has("deadline")) {
    const double deadline = flags.Real("deadline", 1000.0);
    std::size_t feasible = 0;
    for (const auto& entry : result.pareto) {
      const auto report = dse::AnalyzePartialNetworking(
          cs.spec, cs.augmentation, entry.implementation, {}, deadline);
      feasible += report.AllDeadlinesMet();
    }
    std::printf("partial-networking deadline %.0f ms: %zu/%zu designs "
                "feasible\n",
                deadline, feasible, result.pareto.size());
  }

  if (flags.Has("csv")) {
    const std::string path = flags.Str("csv", "front.csv");
    std::ofstream out(path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return 1;
    }
    dse::WriteFrontCsv(result, out);
    std::printf("front written to %s\n", path.c_str());
  }

  const double min_quality = flags.Real("min-quality", 80.0);
  const std::size_t report_k = flags.U64("report", 0);
  if (report_k > 0) {
    // Cheapest implementations reaching the quality bar.
    const auto picks = dse::RankCheapestMeetingQuality(result, min_quality);
    for (std::size_t i = 0; i < picks.size() && i < report_k; ++i) {
      std::printf("\n--- implementation %zu ---\n%s", i + 1,
                  dse::DescribeImplementation(cs.spec, cs.augmentation,
                                              *picks[i])
                      .c_str());
      if (flags.Has("plan")) {
        const auto plans = dse::PlanSessions(cs.spec, cs.augmentation,
                                             picks[i]->implementation);
        for (const auto& plan : plans) {
          std::printf("%s", dse::FormatSessionPlan(cs.spec, plan).c_str());
        }
      }
      if (flags.Has("simulate-sessions")) {
        SimulateSessions(cs.spec, cs.augmentation, picks[i]->implementation,
                         flags);
      }
    }
  }
  return 0;
}

// `corpus`: seeded sweep over generated E/E-architecture families. Each
// sampled topology runs the full pipeline — DSE, representative pick,
// adversarial session campaign — and the exit code reflects whether the
// PERF.md invariants held on every round of every member.
int RunCorpus(const Flags& flags) {
  arch::CorpusSpec corpus;
  corpus.count = flags.U64("count", 10);
  corpus.seed = flags.U64("seed", 1);
  corpus.min_ecus = flags.U64("min-ecus", 5);
  corpus.max_ecus = flags.U64("max-ecus", 50);
  corpus.min_buses = flags.U64("min-buses", 2);
  corpus.max_buses = flags.U64("max-buses", 8);
  corpus.fd_fraction = flags.Real("fd-fraction", 0.35);
  // Scaled profiles keep the frame-level campaigns tractable; --data-scale 1
  // replays full Table-I pattern sets.
  corpus.profile_pool = ParseOrExit([&] {
    return casestudy::ScaledTableI(flags.Real("data-scale", 1.0 / 256),
                                   flags.U64("profiles", 4));
  });

  if (flags.Has("spec")) {
    std::printf("| topology | ecus | buses (fd) | sensors | actuators | "
                "gens | content hash |\n");
    for (std::size_t i = 0; i < corpus.count; ++i) {
      const auto spec = arch::SampleTopologySpec(corpus, i);
      const auto topo =
          arch::GenerateTopology(spec, arch::TopologySeed(corpus, i));
      std::printf("| %s | %zu | %zu (%zu) | %zu | %zu | %zu | %016llx |\n",
                  spec.name.c_str(), spec.num_ecus, spec.buses.size(),
                  arch::CountFdBuses(spec), spec.num_sensors,
                  spec.num_actuators, spec.profile_sets.size(),
                  static_cast<unsigned long long>(
                      model::ContentHash(topo.spec)));
    }
    return 0;
  }

  arch::CorpusSweepOptions options;
  options.exploration.evaluations = flags.U64("evals", 300);
  options.exploration.population_size = flags.U64("pop", 24);
  options.exploration.seed = corpus.seed;
  options.min_quality_percent = flags.Real("min-quality", 80.0);
  options.campaign.rounds = flags.U64("rounds", 3);
  options.campaign.max_drop_rate = flags.Real("max-drop", 0.04);
  options.campaign.max_corrupt_rate = flags.Real("max-corrupt", 0.02);
  options.campaign.max_reorder_rate = flags.Real("max-reorder", 0.02);
  options.campaign.seed = corpus.seed;

  const auto report =
      ParseOrExit([&] { return arch::SweepCorpus(corpus, options); });
  std::printf("%s", arch::FormatCorpusReport(report).c_str());
  return report.all_passed ? 0 : 1;
}

int RunProfiles(const Flags& flags) {
  auto spec = casestudy::ScaledCutSpec(flags.U64("seed", 1));
  const auto cut = netlist::GenerateRandomCircuit(spec);

  bist::ProfileGeneratorConfig config;
  config.stumps = casestudy::PaperStumpsConfig();
  config.byte_scale = flags.Real("scale", 1.0);
  // 0 = all cores; results are bit-identical for every thread count.
  config.threads = flags.U64("threads", 0);
  // W*64 patterns per fault-simulation sweep; bit-identical for every W.
  config.block_width = BlockWidthFlag(flags, 4);
  // Ablation knob: disable the FFR/dominator detection shortcuts.
  config.structural_shortcuts = !flags.Has("no-shortcuts");
  if (flags.Has("prps")) {
    const std::string list = flags.Str("prps", "");
    config.prp_counts = ParseOrExit([&] {
      std::vector<std::uint64_t> counts;
      for (std::size_t pos = 0;;) {
        const std::size_t comma = list.find(',', pos);
        counts.push_back(util::ParseU64(
            "--prps entry", std::string_view(list).substr(pos, comma - pos)));
        if (comma == std::string::npos) return counts;
        pos = comma + 1;
      }
    });
  } else {
    config.prp_counts = {500, 1000, 5000, 20000};
  }
  ParseOrExit([&] {
    config.Validate();
    return 0;
  });
  bist::ProfileGenerator generator(cut, config);
  // A --scale that overflows a byte count shows only once a profile is
  // measured; it exits 2 naming the field as well.
  const auto profiles = ParseOrExit([&] { return generator.GenerateAll(); });
  std::printf("%s", bist::FormatProfileTable(profiles).c_str());
  return 0;
}

int RunDiagnose(const Flags& flags) {
  auto spec = casestudy::ScaledCutSpec(flags.U64("seed", 3));
  spec.num_gates = 1500;
  spec.num_flops = 128;
  const auto cut = netlist::GenerateRandomCircuit(spec);

  bist::StumpsConfig config = SessionConfigFlags(flags);
  bist::DiagnosisEvalOptions options;
  options.num_random_patterns = flags.U64("patterns", 512);
  options.max_samples = flags.U64("samples", 60);
  options.threads = flags.U64("threads", 0);
  options.block_width = BlockWidthFlag(flags, 4);
  const auto faults_total = sim::CollapsedFaults(cut).size();
  options.sample_stride =
      std::max<std::size_t>(1, faults_total / options.max_samples);

  const auto acc = bist::EvaluateDiagnosisAccuracy(cut, config, options);
  std::printf("injected %zu (escaped %zu): top-1 %.0f %%, top-%zu %.0f %%, "
              "mean rank %.1f\n",
              acc.injected, acc.escaped, 100.0 * acc.Top1Rate(), acc.k,
              100.0 * acc.TopkRate(), acc.mean_rank);
  return 0;
}

// One streaming RunBatch pass over a sample of the collapsed fault universe:
// every pattern block is simulated once and the per-fault MISRs advance
// fault-partitioned across the pool. Reports throughput in session-patterns
// per second (patterns x faulty sessions), the number the campaign kernel's
// parallelism actually scales.
int RunStumps(const Flags& flags) {
  auto spec = casestudy::ScaledCutSpec(flags.U64("seed", 1));
  const auto cut = netlist::GenerateRandomCircuit(spec);

  bist::StumpsConfig config = SessionConfigFlags(flags);
  // 0 = all cores; signatures are bit-identical for every thread count.
  config.sim_threads = flags.U64("threads", 0);
  // W*64 patterns per fault-simulation sweep; bit-identical for every W.
  config.sim_block_width = BlockWidthFlag(flags, 4);

  const std::uint64_t num_random = flags.U64("patterns", 2048);
  const auto all_faults = sim::CollapsedFaults(cut);
  const std::size_t want = std::min<std::size_t>(
      std::max<std::uint64_t>(1, flags.U64("faults", 64)), all_faults.size());
  const std::size_t stride = std::max<std::size_t>(1, all_faults.size() / want);
  std::vector<sim::StuckAtFault> faults;
  for (std::size_t fi = 0; fi < all_faults.size() && faults.size() < want;
       fi += stride) {
    faults.push_back(all_faults[fi]);
  }

  bist::StumpsSession session(cut, config);
  // Prime the golden cache outside the timed region: the batch pass itself
  // is what the --threads/--block-width knobs accelerate.
  session.GoldenSignatures(num_random, {});
  const auto t0 = std::chrono::steady_clock::now();
  const auto results = session.RunBatch(num_random, {}, faults);
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  std::size_t failing = 0, fail_entries = 0;
  for (const auto& r : results) {
    failing += !r.pass;
    fail_entries += r.fail_data.size();
  }
  const double session_patterns =
      static_cast<double>(num_random) * static_cast<double>(faults.size());
  std::printf("stumps batch: %zu faulty sessions x %llu patterns in %.3f s "
              "(%.0f session-patterns/s, threads %zu, block width %zu)\n",
              faults.size(), static_cast<unsigned long long>(num_random), secs,
              secs > 0 ? session_patterns / secs : 0.0, config.sim_threads,
              config.sim_block_width);
  std::printf("%zu/%zu sessions fail (%zu fail-data entries, %zu windows "
              "per session)\n",
              failing, results.size(), fail_entries,
              results.empty() ? std::size_t{0}
                              : results.front().window_signatures.size());
  return 0;
}

// --- dict: fault-dictionary serving artifacts -----------------------------
//
// `dict build` fault-simulates one session over the CUT derived from --seed
// and Save()s the dictionary; `dict query` reopens the artifact (Load copy
// or --mmap zero-copy), regenerates faulty sessions for sampled dictionary
// faults, and reports diagnosis accuracy plus open/query timing; `dict
// serve` registers the artifact under --shards (ECU, profile) keys and runs
// a serve::DiagnosisServer over --queries round-robin requests: each
// request's fail data travels to the server as a segmented upload over the
// simulated diagnostic bus (optionally lossy), is diagnosed in batches, and
// the ranking returns as a segmented reply. SIGHUP (with --reload FILE) or
// --reload-after N rolls the dictionary generation over while serving.

netlist::Netlist DictCut(const Flags& flags) {
  auto spec = casestudy::ScaledCutSpec(flags.U64("seed", 3));
  spec.num_gates = 1500;
  spec.num_flops = 128;  // the `diagnose` command's CUT, for comparability
  return netlist::GenerateRandomCircuit(spec);
}

/// Fail data of faulty sessions for `want` sampled dictionary faults
/// (pass-sessions and escapes are skipped). Returns (fault index in the
/// dictionary, fail data) pairs.
std::vector<std::pair<std::size_t, std::vector<bist::FailDatum>>>
SampleFailData(const netlist::Netlist& cut, const bist::StumpsConfig& config,
               const bist::FaultDictionary& dict, std::size_t want) {
  bist::StumpsSession session(cut, config);
  const auto faults = dict.Faults();
  const std::size_t stride = std::max<std::size_t>(1, faults.size() / want);
  std::vector<std::pair<std::size_t, std::vector<bist::FailDatum>>> out;
  for (std::size_t f = 0; f < faults.size() && out.size() < want;
       f += stride) {
    auto result = session.Run(dict.TotalPatterns(), {}, faults[f]);
    if (!result.fail_data.empty()) {
      out.emplace_back(f, std::move(result.fail_data));
    }
  }
  return out;
}

/// 1-based rank of `injected` in a ranking, or 0 when absent.
std::size_t RankOf(const std::vector<bist::DiagnosisCandidate>& ranked,
                   const sim::StuckAtFault& injected) {
  for (std::size_t r = 0; r < ranked.size(); ++r) {
    const sim::StuckAtFault& c = ranked[r].fault;
    if (c.node == injected.node && c.fanin_index == injected.fanin_index &&
        c.stuck_value == injected.stuck_value) {
      return r + 1;
    }
  }
  return 0;
}

int RunDictBuild(const Flags& flags) {
  const auto cut = DictCut(flags);
  const auto config = SessionConfigFlags(flags);
  const std::uint64_t patterns = flags.U64("patterns", 512);

  const auto all_faults = sim::CollapsedFaults(cut);
  const std::size_t want = std::min<std::size_t>(
      std::max<std::uint64_t>(1, flags.U64("max-faults", 512)),
      all_faults.size());
  const std::size_t stride = std::max<std::size_t>(1, all_faults.size() / want);
  std::vector<sim::StuckAtFault> faults;
  for (std::size_t f = 0; f < all_faults.size() && faults.size() < want;
       f += stride) {
    faults.push_back(all_faults[f]);
  }

  const auto t0 = std::chrono::steady_clock::now();
  bist::FaultDictionary dict(cut, config, patterns, {}, std::move(faults),
                             flags.U64("threads", 0),
                             BlockWidthFlag(flags, 4));
  const double build_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  const std::string path = flags.Str("out", "cut.fdict");
  dict.Save(path);
  std::printf("dict build: %zu faults x %u windows (%llu patterns) in "
              "%.2f s -> %s\n",
              dict.FaultCount(), dict.WindowCount(),
              static_cast<unsigned long long>(dict.TotalPatterns()), build_s,
              path.c_str());
  return 0;
}

int RunDictQuery(const Flags& flags) {
  const std::string path = flags.Str("in", "");
  const bool mapped = flags.Has("mmap");

  const auto t_open = std::chrono::steady_clock::now();
  auto dict = mapped ? bist::FaultDictionary::Map(path)
                     : bist::FaultDictionary::Load(path);
  const double open_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t_open)
          .count();

  const auto cut = DictCut(flags);
  const auto config = SessionConfigFlags(flags);
  if (dict.NetlistHash() != cut.ContentHash() ||
      dict.ConfigHash() != bist::SessionStreamConfigHash(config)) {
    std::fprintf(stderr,
                 "%s was built for a different CUT or session config "
                 "(check --seed/--window)\n",
                 path.c_str());
    return 1;
  }

  const auto samples =
      SampleFailData(cut, config, dict, flags.U64("samples", 30));
  const std::size_t top_k = flags.U64("top-k", 5);
  std::size_t top1 = 0, topk = 0;
  double first_query_s = 0.0;
  const auto t_q = std::chrono::steady_clock::now();
  for (std::size_t q = 0; q < samples.size(); ++q) {
    const auto ranked = dict.Diagnose(samples[q].second, top_k);
    if (q == 0) {
      first_query_s = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t_q)
                          .count();
    }
    const std::size_t rank =
        RankOf(ranked, dict.Faults()[samples[q].first]);
    top1 += rank == 1;
    topk += rank >= 1 && rank <= top_k;
  }
  const double query_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t_q)
          .count();
  std::printf("dict query (%s): open %.3f ms, first query %.3f ms\n",
              mapped ? "mmap" : "load", 1e3 * open_s, 1e3 * first_query_s);
  std::printf("%zu queries in %.3f s (%.0f queries/s): top-1 %.0f %%, "
              "top-%zu %.0f %%\n",
              samples.size(), query_s,
              query_s > 0 ? static_cast<double>(samples.size()) / query_s : 0.0,
              samples.empty() ? 0.0
                              : 100.0 * static_cast<double>(top1) /
                                    static_cast<double>(samples.size()),
              top_k,
              samples.empty() ? 0.0
                              : 100.0 * static_cast<double>(topk) /
                                    static_cast<double>(samples.size()));
  return 0;
}

volatile std::sig_atomic_t g_reload_requested = 0;
void HandleReloadSignal(int) { g_reload_requested = 1; }

/// One artifact registered under `shards` (ECU, profile) keys — the
/// fleet-store shape; with --mmap the shards share the kernel page cache.
bist::DictionaryStore LoadShardedStore(const std::string& path,
                                       std::size_t shards, bool mapped) {
  bist::DictionaryStore store;
  for (std::size_t s = 0; s < shards; ++s) {
    store.AddFromFile({"ecu-" + std::to_string(s), "p1"}, path, mapped);
  }
  return store;
}

int RunDictServe(const Flags& flags) {
  const std::string path = flags.Str("in", "");
  const bool mapped = flags.Has("mmap");
  const std::size_t shards = std::max<std::uint64_t>(1, flags.U64("shards", 4));
  const std::size_t num_queries =
      std::max<std::uint64_t>(1, flags.U64("queries", 256));

  bist::DictionaryStore store;
  try {
    store = LoadShardedStore(path, shards, mapped);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cannot open %s: %s\n", path.c_str(), e.what());
    return 3;
  }

  const auto cut = DictCut(flags);
  const auto config = SessionConfigFlags(flags);
  const auto* shard0 = store.Find({"ecu-0", "p1"});
  if (shard0->NetlistHash() != cut.ContentHash() ||
      shard0->ConfigHash() != bist::SessionStreamConfigHash(config)) {
    std::fprintf(stderr,
                 "%s was built for a different CUT or session config "
                 "(check --seed/--window)\n",
                 path.c_str());
    return 3;
  }
  const auto samples =
      SampleFailData(cut, config, *shard0, flags.U64("samples", 30));
  if (samples.empty()) {
    std::fprintf(stderr, "no failing sample sessions — nothing to serve\n");
    return 3;
  }
  // Copy the injected faults out by value: the store (and with it the
  // Faults() span) moves into the server, and a rollover retires the
  // generation it became once the old dictionaries drain.
  const auto faults = shard0->Faults();
  std::vector<sim::StuckAtFault> injected(num_queries);
  for (std::size_t q = 0; q < num_queries; ++q) {
    injected[q] = faults[samples[q % samples.size()].first];
  }

  serve::DiagnosisServerConfig server_config;
  server_config.top_k = flags.U64("top-k", 5);
  server_config.threads = flags.U64("threads", 0);
  server_config.max_inflight = std::max<std::uint64_t>(
      1, flags.U64("max-inflight", 64));
  server_config.slot_period_ms = flags.Real("period", 1.0);
  server_config.faults.drop_rate = flags.Real("frame-loss", 0.0);
  server_config.faults.corrupt_rate = flags.Real("corrupt", 0.0);
  server_config.faults.reorder_rate = flags.Real("reorder", 0.0);
  server_config.faults.seed = flags.U64("seed", 3);

  net::EventTrace trace;
  const bool want_trace = flags.Has("trace-out");
  serve::DiagnosisServer server(std::move(store), server_config,
                                want_trace ? &trace : nullptr);

  // Pace each ECU's offered load to its carrier capacity (with headroom for
  // retransmissions) so the default run is admission-clean; crank --queries
  // against a small --max-inflight to exercise busy rejections instead.
  std::vector<double> next_release(shards, 0.0);
  for (std::size_t q = 0; q < num_queries; ++q) {
    const std::size_t s = q % shards;
    const std::size_t sample = q % samples.size();
    bist::DictQuery query{{"ecu-" + std::to_string(s), "p1"},
                          samples[sample].second};
    const std::uint64_t id = server.Submit(std::move(query), next_release[s]);
    const double frames = static_cast<double>(
        (server.Outcome(id).upload_bytes + server_config.payload_bytes - 1) /
        server_config.payload_bytes);
    next_release[s] += 1.25 * frames * server_config.slot_period_ms + 5.0;
  }

  const std::string reload_path = flags.Str("reload", "");
  if (!reload_path.empty()) std::signal(SIGHUP, HandleReloadSignal);
  const std::uint64_t reload_after = flags.U64("reload-after", 0);
  bool reload_after_armed = reload_after > 0 && !reload_path.empty();

  const auto t0 = std::chrono::steady_clock::now();
  // Chunked horizon: poll the rollover triggers every 50 simulated ms.
  while (!server.AllDone()) {
    const double before_ms = server.NowMs();
    server.Run(before_ms + 50.0);
    const bool signaled = g_reload_requested != 0;
    const bool counted =
        reload_after_armed && server.Stats().answered >= reload_after;
    if (signaled || counted) {
      g_reload_requested = 0;
      reload_after_armed = false;
      try {
        const std::uint32_t version =
            server.Store().Reload(LoadShardedStore(reload_path, shards, mapped));
        std::printf("dict serve: rolled over to %s (generation v%u)\n",
                    reload_path.c_str(), version);
      } catch (const std::exception& e) {
        // Non-disruptive by design: the serving generation is untouched.
        std::fprintf(stderr, "dict serve: reload rejected: %s\n", e.what());
      }
    }
    if (server.NowMs() <= before_ms) break;  // No progress: stuck requests.
  }
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  const serve::ServerStats& stats = server.Stats();
  std::size_t top1 = 0;
  for (std::size_t q = 0; q < num_queries; ++q) {
    const auto& outcome = server.Outcome(q);
    if (outcome.status != serve::RequestStatus::Answered) continue;
    top1 += RankOf(outcome.ranking, injected[q]) == 1;
  }
  std::printf(
      "dict serve (%s): %zu shards, %llu/%llu answered over the bus in "
      "%.1f ms simulated (%.3f s wall, threads %zu, loss %.2f %%), "
      "top-1 %.0f %%\n",
      mapped ? "mmap" : "load", shards,
      static_cast<unsigned long long>(stats.answered),
      static_cast<unsigned long long>(stats.submitted), server.NowMs(),
      wall_s, server_config.threads, 100.0 * server_config.faults.drop_rate,
      stats.answered == 0 ? 0.0
                          : 100.0 * static_cast<double>(top1) /
                                static_cast<double>(stats.answered));
  std::printf(
      "  rejected busy %llu, upload failures %llu, response failures %llu, "
      "%llu batches, max in-flight %zu, mean latency %.1f ms, "
      "generations v%u (%llu reloads, %llu rejected)\n",
      static_cast<unsigned long long>(stats.rejected_busy),
      static_cast<unsigned long long>(stats.upload_failures),
      static_cast<unsigned long long>(stats.response_failures),
      static_cast<unsigned long long>(stats.batches),
      stats.max_inflight_observed,
      stats.answered == 0 ? 0.0
                          : stats.total_latency_ms /
                                static_cast<double>(stats.answered),
      server.Store().Version(),
      static_cast<unsigned long long>(server.Store().Reloads()),
      static_cast<unsigned long long>(server.Store().ReloadRejects()));

  if (want_trace) {
    const std::string trace_path = flags.Str("trace-out", "trace.jsonl");
    std::ofstream out(trace_path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", trace_path.c_str());
      return 3;
    }
    trace.WriteJsonl(out);
    std::printf("event trace (%zu events) written to %s\n",
                trace.Events().size(), trace_path.c_str());
  }
  return stats.answered == stats.submitted ? 0 : 1;
}

/// The dict commands report a failed artifact or trace operation as
/// "<command>: <what>" and exit status 1.
template <int (*kRun)(const Flags&)>
int ExitOneOnError(const Flags& flags) {
  try {
    return kRun(flags);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n",
                 std::string(flags.Command().name).c_str(), e.what());
    return 1;
  }
}

int RunPlan(const Flags& flags) {
  model::ParsedSpec parsed;
  model::BistAugmentation augmentation;
  model::Implementation impl;
  try {
    parsed = model::ParseSpecFile(flags.Str("spec", ""));
    augmentation = parsed.Augment();
    std::ifstream impl_in(flags.Str("impl", ""));
    if (!impl_in) {
      throw std::runtime_error("cannot open " + flags.Str("impl", ""));
    }
    impl = model::ReadImplementation(parsed.spec, impl_in);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "plan: %s\n", e.what());
    return 2;
  }
  const auto violations = model::ValidateImplementation(parsed.spec, impl);
  if (!violations.empty()) {
    std::fprintf(stderr, "implementation infeasible: %s\n",
                 violations.front().c_str());
    return 1;
  }

  const auto plans = dse::PlanSessions(parsed.spec, augmentation, impl);
  if (plans.empty()) {
    std::printf("no BIST program selected in this implementation\n");
    return 0;
  }
  for (const auto& plan : plans) {
    std::printf("%s", dse::FormatSessionPlan(parsed.spec, plan).c_str());
  }
  if (flags.Has("deadline")) {
    const double deadline = flags.Real("deadline", 1000.0);
    const auto report = dse::AnalyzePartialNetworking(
        parsed.spec, augmentation, impl, {}, deadline);
    std::printf("partial-networking deadline %.0f ms: %s (%zu violations)\n",
                deadline,
                report.AllDeadlinesMet() ? "MET" : "VIOLATED",
                report.deadline_violations.size());
  }
  if (flags.Has("simulate-sessions")) {
    return SimulateSessions(parsed.spec, augmentation, impl, flags);
  }
  return 0;
}

// --- flag tables ----------------------------------------------------------
//
// Every flag each command reads, with its kind: the parser rejects any other
// flag, and the usage text is printed from these tables.

using enum tools::FlagKind;

constexpr tools::FlagSpec kExploreFlags[] = {
    {"evals", kU64},
    {"pop", kU64},
    {"seed", kU64},
    {"future", kBool},
    {"spec", kString},
    {"algorithm", kString, "nsga2|spea2"},
    {"mutation-rate", kReal},
    {"threads", kU64, "K"},
    {"csv", kString},
    {"islands", kU64, "K"},
    {"plan", kBool},
    {"report", kU64, "K"},
    {"deadline", kReal, "MS"},
    {"min-quality", kReal, "PCT"},
    {"simulate-sessions", kBool},
    {"frame-loss", kReal, "P"},
    {"trace-out", kString},
};

constexpr tools::FlagSpec kCorpusFlags[] = {
    {"count", kU64},
    {"seed", kU64},
    {"spec", kBool},
    {"min-ecus", kU64},
    {"max-ecus", kU64},
    {"min-buses", kU64},
    {"max-buses", kU64},
    {"fd-fraction", kReal, "P"},
    {"profiles", kU64, "K"},
    {"data-scale", kReal},
    {"evals", kU64},
    {"pop", kU64},
    {"min-quality", kReal, "PCT"},
    {"rounds", kU64},
    {"max-drop", kReal, "P"},
    {"max-corrupt", kReal, "P"},
    {"max-reorder", kReal, "P"},
};

constexpr tools::FlagSpec kProfilesFlags[] = {
    {"seed", kU64},
    {"prps", kString, "A,B,C"},
    {"scale", kReal},
    {"threads", kU64, "K"},
    {"block-width", kU64, "W"},
    {"no-shortcuts", kBool},
};

constexpr tools::FlagSpec kDiagnoseFlags[] = {
    {"seed", kU64},
    {"patterns", kU64},
    {"samples", kU64},
    {"window", kU32},
    {"threads", kU64, "K"},
    {"block-width", kU64, "W"},
};

constexpr tools::FlagSpec kStumpsFlags[] = {
    {"seed", kU64},
    {"patterns", kU64},
    {"faults", kU64},
    {"window", kU32},
    {"threads", kU64, "K"},
    {"block-width", kU64, "W"},
};

constexpr tools::FlagSpec kDictBuildFlags[] = {
    {"out", kString, "", true},
    {"seed", kU64},
    {"patterns", kU64},
    {"window", kU32},
    {"max-faults", kU64},
    {"threads", kU64, "K"},
    {"block-width", kU64, "W"},
};

constexpr tools::FlagSpec kDictQueryFlags[] = {
    {"in", kString, "", true},
    {"seed", kU64},
    {"window", kU32},
    {"mmap", kBool},
    {"samples", kU64},
    {"top-k", kU64, "K"},
};

constexpr tools::FlagSpec kDictServeFlags[] = {
    {"in", kString, "", true},
    {"seed", kU64},
    {"window", kU32},
    {"mmap", kBool},
    {"shards", kU64, "S"},
    {"queries", kU64},
    {"samples", kU64},
    {"top-k", kU64, "K"},
    {"threads", kU64, "K"},
    {"max-inflight", kU64},
    {"frame-loss", kReal, "P"},
    {"corrupt", kReal, "P"},
    {"reorder", kReal, "P"},
    {"period", kReal, "MS"},
    {"trace-out", kString},
    {"reload", kString},
    {"reload-after", kU64},
};

constexpr tools::FlagSpec kPlanFlags[] = {
    {"spec", kString, "", true},
    {"impl", kString, "", true},
    {"deadline", kReal, "MS"},
    {"simulate-sessions", kBool},
    {"frame-loss", kReal, "P"},
    {"seed", kU64},
    {"trace-out", kString},
};

struct Command {
  tools::CommandSpec spec;
  int (*run)(const Flags&);
};

const Command kCommands[] = {
    {{"explore", kExploreFlags}, RunExplore},
    {{"corpus", kCorpusFlags,
      "--spec: print the sampled topology structures and stop; exit 0: "
      "every campaign round upheld the PERF.md invariants; 1: violation or "
      "incomplete session"},
     RunCorpus},
    {{"profiles", kProfilesFlags}, RunProfiles},
    {{"diagnose", kDiagnoseFlags}, RunDiagnose},
    {{"stumps", kStumpsFlags}, RunStumps},
    {{"dict build", kDictBuildFlags}, ExitOneOnError<RunDictBuild>},
    {{"dict query", kDictQueryFlags}, ExitOneOnError<RunDictQuery>},
    {{"dict serve", kDictServeFlags,
      "exit 0: all answered; 1: rejected/failed/unanswered requests; 2: "
      "usage; 3: artifact or trace open error. --reload FILE arms "
      "SIGHUP-triggered dictionary rollover; --reload-after N triggers it "
      "after N answered requests"},
     ExitOneOnError<RunDictServe>},
    {{"plan", kPlanFlags}, RunPlan},
};

int Usage() {
  std::fprintf(stderr, "usage:\n");
  for (const Command& command : kCommands) {
    std::fprintf(stderr, "%s",
                 tools::FormatUsage(kProgram, command.spec).c_str());
  }
  std::fprintf(stderr, "  (--block-width W: W in {%s})\n",
               sim::SupportedBlockWidthList().c_str());
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  // A command is one word ("explore") or two ("dict build").
  const std::string one = argc > 1 ? argv[1] : "";
  const std::string two = argc > 2 ? one + " " + argv[2] : "";
  for (const Command& command : kCommands) {
    const int words = command.spec.name == one   ? 1
                      : command.spec.name == two ? 2
                                                 : 0;
    if (words > 0) {
      return command.run(tools::ParseFlagsOrExit(kProgram, command.spec, argc,
                                                 argv, 1 + words));
    }
  }
  return Usage();
}
