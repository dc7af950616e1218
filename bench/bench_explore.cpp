// Exploration-throughput benchmark: runs the case-study DSE through
// dse::ExploreParallel at 1 island and at N islands (each island with its
// own EvaluationEngine: decoder and objective memo) and reports evaluations
// per second, the memo hit rate, the island speedup, and the SAT-decode
// telemetry (search and propagation counters) to BENCH_explore.json.
//
// At the default sizes the two front hashes, both memo-hit counts, both
// decode conflict and propagation counts and the routed model hash are
// gated for equality: all nine are deterministic. Each island decodes on
// dse::kDecoderShards solvers over a partition that depends only on the
// batch size, so the decode counters do not depend on the thread count.
//
// One routed-decode row rides along: a fixed genotype set decoded through
// the routed encoding (dse::RoutedSatDecoder, the one decoder whose solves
// hit real conflicts), with its per-decode time, its solver counters and a
// hash of every decoded model.
//
// Env: BISTDSE_EXPLORE_EVALS (default 4000) per-island evaluation budget,
//      BISTDSE_EXPLORE_ISLANDS (default 8) island count of the second row,
//      BISTDSE_EXPLORE_ROUTED_DECODES (default 40) routed decodes.
// Arg: output path (default BENCH_explore.json).
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_report.hpp"
#include "bench_util.hpp"
#include "casestudy/casestudy.hpp"
#include "dse/parallel.hpp"
#include "dse/routing_encoding.hpp"
#include "util/rng.hpp"

using namespace bistdse;

namespace {

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

double UsPerDecode(const dse::DecoderStats& d) {
  return d.decodes > 0 ? 1e6 * d.decode_seconds / static_cast<double>(d.decodes)
                       : 0.0;
}

/// Adds the decoder and SAT counters to `row` under dotted `prefix` keys.
void SetDecode(bench::Row& row, const std::string& prefix,
               const dse::DecoderStats& d) {
  const auto& s = d.solver;
  row.Set(prefix + "decodes", d.decodes)
      .Set(prefix + "infeasible", d.infeasible)
      .Set(prefix + "decode_seconds", d.decode_seconds)
      .Set(prefix + "us_per_decode", UsPerDecode(d))
      .Set(prefix + "decisions", s.decisions)
      .Set(prefix + "conflicts", s.conflicts)
      .Set(prefix + "learned_clauses", s.learned_clauses)
      .Set(prefix + "propagations", s.propagations)
      .Set(prefix + "binary_propagations", s.binary_propagations)
      .Set(prefix + "pb_propagations", s.pb_propagations);
}

/// Decodes `count` genotypes from a fixed seed through the routed encoding
/// and returns the decoder stats plus a hash of every decoded implementation.
/// Uses the two-profile case study (~260k SAT variables).
dse::DecoderStats RoutedDecodeSweep(const casestudy::CaseStudy& cs,
                                    std::size_t count, std::uint64_t* hash) {
  dse::RoutedSatDecoder decoder(cs.spec, cs.augmentation);
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
      "Exploration throughput — ExploreParallel at 1 and N islands",
      "Case-study NSGA-II exploration. Each island owns its decoder and its\n"
      "implementation-signature memo, so the hit count at N islands is the\n"
      "sum of N independent islands.\n"
      "Rows carry SAT-decode telemetry; a routed-decode row follows.");

  const auto evals = bench::EnvU64("BISTDSE_EXPLORE_EVALS", 4000);
  const auto islands = bench::EnvU64("BISTDSE_EXPLORE_ISLANDS", 8);
  const auto routed_decodes =
      bench::EnvU64("BISTDSE_EXPLORE_ROUTED_DECODES", 40);
  auto cs = casestudy::BuildCaseStudy();

  dse::ExplorationConfig config;
  config.evaluations = evals;
  config.population_size = 100;
  config.seed = 1;

  // Fronts, memo hits, decode work and routed models recorded at the
  // default sizes.
  const bool pinned = evals == 4000 && islands == 8 && routed_decodes == 40;
  struct Pin {
    const char* front_hash;
    std::size_t cache_hits;
    std::uint64_t conflicts;
    std::uint64_t propagations;
  };
  const Pin pins[] = {{"0x21ae9c70c4d4665c", 448, 5, 6768102},
                      {"0x6d2ef18e7e1773d5", 3336, 30, 54144757}};

  bench::Report report("explore_throughput");
  report.Run().Set("evaluations_per_island", evals);
  // Every run must spend its full budget and produce a non-trivial front,
  // and memoization must be doing real work.
  for (std::size_t i = 0; i < 2; ++i) {
    const std::size_t n = i == 0 ? 1 : static_cast<std::size_t>(islands);
    const auto result = dse::ExploreParallel(cs.spec, cs.augmentation, config, n);
    const double hit_rate =
        result.evaluations > 0 ? static_cast<double>(result.eval_cache_hits) /
                                     static_cast<double>(result.evaluations)
                               : 0.0;
    const std::string hash = bench::Hex(FrontHash(result.pareto));
    std::printf(
        "%zu island(s): %zu evaluations (%.1f %% memoized) in %.2f s -> "
        "%.0f evals/s, front %zu (hash %s), decode %.1f us/eval\n",
        n, result.evaluations, 100.0 * hit_rate, result.wall_seconds,
        result.Throughput(), result.pareto.size(), hash.c_str(),
        UsPerDecode(result.decoder_stats));
    bench::Row& row = report.AddRow("results")
                          .Set("islands", n)
                          .Set("evaluations", result.evaluations)
                          .Set("evals_per_second", result.Throughput())
                          .Set("cache_hit_rate", hit_rate)
                          .Set("front_size", result.pareto.size())
                          .Set("front_hash", hash)
                          .Set("wall_seconds", result.wall_seconds);
    SetDecode(row, "decode.", result.decoder_stats);
    const std::string at = "[islands=" + std::to_string(n) + "]";
    report.Equal("evaluations" + at, result.evaluations, n * evals);
    report.AtLeast("front_size" + at, result.pareto.size(), 4);
    if (pinned) {
      report.Equal("front_hash" + at, hash, pins[i].front_hash);
      report.Equal("cache_hits" + at, result.eval_cache_hits,
                   pins[i].cache_hits);
      report.Equal("decode.conflicts" + at,
                   result.decoder_stats.solver.conflicts, pins[i].conflicts);
      report.Equal("decode.propagations" + at,
                   result.decoder_stats.solver.propagations,
                   pins[i].propagations);
    } else {
      report.Above("cache_hits" + at, result.eval_cache_hits, 0);
    }
  }

  // The routed encoding: two orders of magnitude more variables per decode,
  // and the one decoder whose solves learn clauses.
  auto routed_profiles = casestudy::PaperTableI();
  routed_profiles.resize(2);
  const auto routed_cs = casestudy::BuildCaseStudy(routed_profiles, 42);
  std::uint64_t routed_hash = 0;
  const auto routed = RoutedDecodeSweep(routed_cs, routed_decodes, &routed_hash);
  std::printf("routed decode: %.0f us/decode over %llu decodes, %llu "
              "conflicts, model hash %s\n",
              UsPerDecode(routed),
              static_cast<unsigned long long>(routed.decodes),
              static_cast<unsigned long long>(routed.solver.conflicts),
              bench::Hex(routed_hash).c_str());
  SetDecode(report.AddRow("routed_decode").Set("model_hash",
                                               bench::Hex(routed_hash)),
            "decode.", routed);
  if (pinned) {
    report.Equal("routed_model_hash", bench::Hex(routed_hash),
                 "0x951f9d2cc9c6cba6");
  }
  return report.Finish(path);
}
