// Exploration-throughput benchmark over the shared EvaluationEngine: runs
// the case-study DSE at 1 island and at N islands (one shared engine, one
// shared objective memo) and reports evaluations per second, the memo
// hit rate, the island speedup, and the SAT-decode telemetry (search /
// propagation / inprocessing counters) to BENCH_explore.json.
//
// Two inprocessing ablations ride along:
//   * the 1-island exploration is repeated with inprocessing off
//     (SolverConfig::inprocess = false) — the Pareto front must be
//     bit-identical, which is the canonicity gate for the production config;
//   * a fixed genotype set is decoded through the routed encoding (the large
//     instance where probing/SCC/subsumption pay off) with inprocessing on
//     and off, and both per-decode times land in the JSON.
//
// Env: BISTDSE_EXPLORE_EVALS (default 4000) per-island evaluation budget,
//      BISTDSE_EXPLORE_ISLANDS (default 8) island count of the second row,
//      BISTDSE_EXPLORE_ROUTED_DECODES (default 40) routed-ablation decodes.
// Arg: output path (default BENCH_explore.json).
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "casestudy/casestudy.hpp"
#include "dse/parallel.hpp"
#include "dse/routing_encoding.hpp"
#include "util/rng.hpp"

using namespace bistdse;

namespace {

struct Row {
  std::size_t islands;
  std::size_t evaluations;
  std::size_t cache_hits;
  std::size_t front;
  double wall_seconds;
  double throughput;
  std::uint64_t front_hash;
  dse::DecoderStats decode;

  double HitRate() const {
    return evaluations > 0
               ? static_cast<double>(cache_hits) /
                     static_cast<double>(evaluations)
               : 0.0;
  }
};

struct Fnv {
  std::uint64_t h = 1469598103934665603ULL;
  void Bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 1099511628211ULL;
    }
  }
  void U64(std::uint64_t v) { Bytes(&v, sizeof v); }
  void D(double v) { Bytes(&v, sizeof v); }
};

std::uint64_t FrontHash(const std::vector<dse::ExplorationEntry>& pareto) {
  Fnv f;
  f.U64(pareto.size());
  for (const auto& e : pareto) {
    const auto v = e.objectives.ToMinimizationVector();
    f.U64(v.size());
    for (double d : v) f.D(d);
    f.U64(e.implementation.binding.size());
    for (std::size_t m : e.implementation.binding) f.U64(m);
  }
  return f.h;
}

void PrintDecodeJson(std::FILE* out, const dse::DecoderStats& d,
                     const char* indent) {
  const auto& s = d.solver;
  const double us_per_decode =
      d.decodes > 0 ? 1e6 * d.decode_seconds / static_cast<double>(d.decodes)
                    : 0.0;
  std::fprintf(
      out,
      "{\n"
      "%s  \"decodes\": %llu, \"infeasible\": %llu,\n"
      "%s  \"decode_seconds\": %.3f, \"us_per_decode\": %.1f,\n"
      "%s  \"decisions\": %llu, \"conflicts\": %llu, \"restarts\": %llu,\n"
      "%s  \"learned_clauses\": %llu, \"reduced_clauses\": %llu,\n"
      "%s  \"propagations\": %llu, \"binary_propagations\": %llu, "
      "\"pb_propagations\": %llu,\n"
      "%s  \"inprocess_runs\": %llu, \"probes\": %llu, "
      "\"probed_literals\": %llu,\n"
      "%s  \"eliminated_equivalences\": %llu, \"subsumed_clauses\": %llu, "
      "\"strengthened_clauses\": %llu\n"
      "%s}",
      indent, static_cast<unsigned long long>(d.decodes),
      static_cast<unsigned long long>(d.infeasible), indent, d.decode_seconds,
      us_per_decode, indent, static_cast<unsigned long long>(s.decisions),
      static_cast<unsigned long long>(s.conflicts),
      static_cast<unsigned long long>(s.restarts), indent,
      static_cast<unsigned long long>(s.learned_clauses),
      static_cast<unsigned long long>(s.reduced_clauses), indent,
      static_cast<unsigned long long>(s.propagations),
      static_cast<unsigned long long>(s.binary_propagations),
      static_cast<unsigned long long>(s.pb_propagations), indent,
      static_cast<unsigned long long>(s.inprocess_runs),
      static_cast<unsigned long long>(s.probes),
      static_cast<unsigned long long>(s.probed_literals), indent,
      static_cast<unsigned long long>(s.eliminated_equivalences),
      static_cast<unsigned long long>(s.subsumed_clauses),
      static_cast<unsigned long long>(s.strengthened_clauses), indent);
}

/// Decodes `count` genotypes from a fixed seed through the routed encoding
/// and returns the decoder stats plus a hash of every decoded implementation.
/// Uses the two-profile case study (~260k SAT variables): big enough that
/// the inprocessing transforms pay for themselves within a few decodes.
dse::DecoderStats RoutedDecodeSweep(const casestudy::CaseStudy& cs,
                                    const sat::SolverConfig& solver_config,
                                    std::size_t count, std::uint64_t* hash) {
  dse::RoutedSatDecoder decoder(cs.spec, cs.augmentation, 5, solver_config);
  util::SplitMix64 rng(3);
  Fnv f;
  for (std::size_t i = 0; i < count; ++i) {
    const auto genotype =
        moea::RandomGenotypeBiased(decoder.GenotypeSize(), 0.2, rng);
    const auto impl = decoder.Decode(genotype);
    if (!impl) continue;
    f.U64(impl->binding.size());
    for (std::size_t m : impl->binding) f.U64(m);
    f.U64(impl->routing.size());
    for (const auto& [c, path] : impl->routing) {
      f.U64(c);
      f.U64(path.size());
      for (auto r : path) f.U64(r);
    }
  }
  *hash = f.h;
  return decoder.Stats();
}

}  // namespace

int main(int argc, char** argv) {
  const char* path = argc > 1 ? argv[1] : "BENCH_explore.json";
  bench::PrintHeader(
      "Exploration throughput — shared EvaluationEngine at 1 and N islands",
      "Case-study NSGA-II exploration through the shared evaluation engine.\n"
      "Islands share one implementation-signature memo, so the hit rate at\n"
      "N islands includes cross-island hits the per-island caches missed.\n"
      "Rows carry SAT-decode telemetry; inprocessing ablations follow.");

  const auto evals = bench::EnvU64("BISTDSE_EXPLORE_EVALS", 4000);
  const auto islands = bench::EnvU64("BISTDSE_EXPLORE_ISLANDS", 8);
  const auto routed_decodes =
      bench::EnvU64("BISTDSE_EXPLORE_ROUTED_DECODES", 40);
  auto cs = casestudy::BuildCaseStudy();

  dse::ExplorationConfig config;
  config.evaluations = evals;
  config.population_size = 100;
  config.seed = 1;

  std::vector<Row> rows;
  const auto run = [&](std::size_t n) {
    const auto result = dse::ExploreParallel(cs.spec, cs.augmentation, config, n);
    rows.push_back({n, result.evaluations, result.eval_cache_hits,
                    result.pareto.size(), result.wall_seconds,
                    result.Throughput(), FrontHash(result.pareto),
                    result.decoder_stats});
    const Row& r = rows.back();
    std::printf(
        "%zu island(s): %zu evaluations (%.1f %% memoized) in %.2f s -> "
        "%.0f evals/s, front %zu, decode %.1f us/eval\n",
        n, r.evaluations, 100.0 * r.HitRate(), r.wall_seconds, r.throughput,
        r.front,
        r.decode.decodes > 0 ? 1e6 * r.decode.decode_seconds /
                                   static_cast<double>(r.decode.decodes)
                             : 0.0);
  };
  run(1);
  run(islands);

  // Ablation 1 — canonicity gate: the same exploration with every
  // inprocessing transform off must reproduce the front bit-identically
  // (pinned decision order makes the decoded model unique; see sat/).
  sat::SolverConfig no_inprocess;
  no_inprocess.inprocess = false;
  const dse::ExplorationConfig default_config = config;
  config.solver = no_inprocess;
  run(1);
  config = default_config;
  const bool front_identical = rows[2].front_hash == rows[0].front_hash;
  std::printf("inprocessing off: front %s (hash 0x%016llx vs 0x%016llx)\n",
              front_identical ? "bit-identical" : "DIFFERS",
              static_cast<unsigned long long>(rows[2].front_hash),
              static_cast<unsigned long long>(rows[0].front_hash));

  // Ablation 2 — the routed encoding (two orders of magnitude more
  // variables per decode) with inprocessing on vs off, same genotypes.
  auto routed_profiles = casestudy::PaperTableI();
  routed_profiles.resize(2);
  const auto routed_cs = casestudy::BuildCaseStudy(routed_profiles, 42);
  std::uint64_t routed_on_hash = 0, routed_off_hash = 0;
  const auto routed_on = RoutedDecodeSweep(routed_cs, sat::SolverConfig{},
                                           routed_decodes, &routed_on_hash);
  const auto routed_off = RoutedDecodeSweep(routed_cs, no_inprocess,
                                            routed_decodes, &routed_off_hash);
  const auto per_decode = [](const dse::DecoderStats& d) {
    return d.decodes > 0
               ? 1e6 * d.decode_seconds / static_cast<double>(d.decodes)
               : 0.0;
  };
  std::printf(
      "routed decode: inprocess on %.0f us/decode, off %.0f us/decode, "
      "models %s\n",
      per_decode(routed_on), per_decode(routed_off),
      routed_on_hash == routed_off_hash ? "bit-identical" : "DIFFER");

  std::FILE* out = std::fopen(path, "w");
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return 1;
  }
  std::fprintf(out,
               "{\n"
               "  \"benchmark\": \"explore_throughput\",\n"
               "  \"evaluations_per_island\": %llu,\n"
               "  \"results\": [\n",
               static_cast<unsigned long long>(evals));
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(out,
                 "    {\"islands\": %zu, \"inprocess\": %s, "
                 "\"evaluations\": %zu, "
                 "\"evals_per_second\": %.1f, \"cache_hit_rate\": %.4f, "
                 "\"front_size\": %zu, \"front_hash\": \"0x%016llx\", "
                 "\"wall_seconds\": %.3f,\n     \"decode\": ",
                 r.islands, i == 2 ? "false" : "true", r.evaluations,
                 r.throughput, r.HitRate(), r.front,
                 static_cast<unsigned long long>(r.front_hash),
                 r.wall_seconds);
    PrintDecodeJson(out, r.decode, "     ");
    std::fprintf(out, "}%s\n", i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out,
               "  ],\n"
               "  \"routed_ablation\": {\n"
               "    \"decodes\": %llu,\n"
               "    \"models_identical\": %s,\n"
               "    \"inprocess_on\": ",
               static_cast<unsigned long long>(routed_decodes),
               routed_on_hash == routed_off_hash ? "true" : "false");
  PrintDecodeJson(out, routed_on, "    ");
  std::fprintf(out, ",\n    \"inprocess_off\": ");
  PrintDecodeJson(out, routed_off, "    ");
  std::fprintf(out, "\n  }\n}\n");
  std::fclose(out);
  std::printf("exploration benchmark written to %s\n", path);

  // CI acceptance gates: every run must spend its full budget and produce a
  // non-trivial front, memoization must be doing real work, the
  // inprocessing-off front must be bit-identical (canonicity), and the
  // routed ablation must decode the same models with inprocessing no slower
  // than 1.05x the transform-free solver (measured ~0.8x; generous slop for
  // noisy CI machines).
  for (const Row& r : rows) {
    if (r.evaluations != r.islands * evals) return 1;
    if (r.front < 4) return 1;
    if (r.cache_hits == 0) return 1;
  }
  if (!front_identical) return 1;
  if (routed_on_hash != routed_off_hash) return 1;
  if (routed_on.decodes != routed_off.decodes) return 1;
  if (per_decode(routed_on) > 1.05 * per_decode(routed_off)) return 1;
  return 0;
}
