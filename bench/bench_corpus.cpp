// Corpus sweep benchmark: seeded E/E-architecture families (5-50 ECUs,
// 2-8 classic-CAN/CAN-FD buses) through the full pipeline — generation,
// DSE, representative pick, and an adversarial frame-level campaign — with
// the three PERF.md invariants asserted on every round. Reports per-topology
// structure, exploration and campaign wall time, and the invariant verdicts,
// and writes them to BENCH_corpus.json.
//
// Env: BISTDSE_CORPUS_COUNT (default 10) sampled topologies,
//      BISTDSE_CORPUS_SEED (default 1) corpus seed,
//      BISTDSE_CORPUS_EVALS (default 300) DSE evaluations per topology,
//      BISTDSE_CORPUS_ROUNDS (default 3) adversarial rounds per topology.
// Arg: output path (default BENCH_corpus.json).
#include <cstdio>
#include <string>

#include "arch/corpus.hpp"
#include "bench_report.hpp"
#include "bench_util.hpp"
#include "casestudy/casestudy.hpp"

using namespace bistdse;

int main(int argc, char** argv) {
  const char* path = argc > 1 ? argv[1] : "BENCH_corpus.json";
  bench::PrintHeader(
      "Corpus sweep — the paper's invariants on generated architectures",
      "Seeded topology families beyond the case study, each explored and\n"
      "then replayed under randomized loss/corruption/reordering schedules.\n"
      "Every round must respect the Eq.-1 lower bound, WCRT domination, and\n"
      "functional-schedule non-intrusiveness.");

  arch::CorpusSpec corpus;
  corpus.count = bench::EnvU64("BISTDSE_CORPUS_COUNT", 10);
  corpus.seed = bench::EnvU64("BISTDSE_CORPUS_SEED", 1);
  corpus.profile_pool = casestudy::ScaledTableI(1.0 / 256, 4);

  arch::CorpusSweepOptions options;
  options.exploration.evaluations = bench::EnvU64("BISTDSE_CORPUS_EVALS", 300);
  options.exploration.population_size = 24;
  options.exploration.seed = corpus.seed;
  options.campaign.rounds = bench::EnvU64("BISTDSE_CORPUS_ROUNDS", 3);
  options.campaign.seed = corpus.seed;

  const arch::CorpusSweepReport report = arch::SweepCorpus(corpus, options);
  std::printf("%s", arch::FormatCorpusReport(report).c_str());

  bench::Report out("corpus_sweep");
  out.Run()
      .Set("corpus_seed", corpus.seed)
      .Set("evaluations", options.exploration.evaluations);
  out.AddRow("sweep")
      .Set("all_passed", report.all_passed)
      .Set("rounds_executed", report.rounds_executed);
  for (const arch::CorpusTopologyResult& t : report.topologies) {
    out.AddRow("topologies")
        .Set("name", t.name)
        .Set("ecus", t.num_ecus)
        .Set("buses", t.num_buses)
        .Set("fd_buses", t.fd_buses)
        .Set("generations", t.generations)
        .Set("content_hash", bench::Hex(t.content_hash))
        .Set("pareto_size", t.pareto_size)
        .Set("quality_percent", t.representative.test_quality_percent)
        .Set("cost", t.representative.monetary_cost)
        .Set("explore_seconds", t.explore_seconds)
        .Set("campaign_seconds", t.campaign_seconds)
        .Set("rounds", t.campaign.rounds.size())
        .Set("frames_dropped", t.campaign.total_frames_dropped)
        .Set("q_bounded", t.campaign.all_q_bounded)
        .Set("wcrt_dominated", t.campaign.all_wcrt_dominated)
        .Set("non_intrusive", t.campaign.all_non_intrusive)
        .Set("passed", t.passed);
    // An invariant violation anywhere in the corpus fails the sweep leg.
    out.Equal("passed[" + t.name + "]", t.passed, true);
  }
  return out.Finish(path);
}
