// Ablation of the exploration's own design choices (DESIGN.md §5):
//
//  * biased vs. uniform phase initialization — biased initialization spreads
//    the initial population over the selection-density spectrum of the
//    optional diagnosis tasks (without it the front collapses to
//    all-BIST-everywhere designs);
//  * mutation strength 1/n vs 3/n;
//  * hypervolume over evaluations for the default configuration.
//
// Env: BISTDSE_CONV_EVALS (default 15000).
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "casestudy/casestudy.hpp"
#include "dse/decoder.hpp"
#include "dse/objectives.hpp"
#include "moea/algorithm.hpp"
#include "moea/archive.hpp"
#include "moea/indicators.hpp"

using namespace bistdse;

namespace {

struct RunResult {
  double hypervolume = 0.0;
  std::size_t front_size = 0;
  double min_quality = 1e18, max_quality = -1e18;
  std::vector<std::pair<std::size_t, double>> hv_trace;
};

/// Reference point for hypervolume: (quality 0 %, shut-off 10^7 ms, cost
/// 2000) — dominated by every sensible implementation.
const moea::ObjectiveVector kReference = {0.0, 1e7, 2000.0};

RunResult RunOnce(const casestudy::CaseStudy& cs, bool biased_init,
                  double mutation_scale, std::size_t evals,
                  bool use_spea2 = false) {
  dse::SatDecoder decoder(cs.spec, cs.augmentation);
  moea::AlgorithmConfig config;
  config.population_size = 100;
  config.genotype_size = decoder.GenotypeSize();
  config.biased_phase_init = biased_init;
  config.mutation_rate =
      mutation_scale / static_cast<double>(decoder.GenotypeSize());
  config.seed = 17;
  const auto algorithm = moea::MakeAlgorithm(
      use_spea2 ? moea::AlgorithmKind::Spea2 : moea::AlgorithmKind::Nsga2,
      config);

  RunResult rr;
  // Every feasible evaluation is offered to the archive, in evaluation
  // order: the non-dominated set of everything the run evaluated.
  moea::ParetoArchive archive;
  const moea::Evaluator evaluator =
      [&](const moea::Genotype& genotype)
      -> std::optional<moea::ObjectiveVector> {
    auto impl = decoder.Decode(genotype);
    if (!impl) return std::nullopt;
    auto objectives =
        dse::EvaluateImplementation(cs.spec, cs.augmentation, *impl)
            .ToMinimizationVector();
    archive.Offer(objectives, archive.Size());
    return objectives;
  };
  const moea::GenerationCallback trace = [&](std::size_t, std::size_t done) {
    if (rr.hv_trace.empty() || done >= rr.hv_trace.back().first + evals / 8) {
      std::vector<moea::ObjectiveVector> pts;
      for (const auto& e : archive.Entries()) pts.push_back(e.objectives);
      // Clip shut-off into the reference box for a stable indicator.
      for (auto& p : pts) p[1] = std::min(p[1], kReference[1]);
      rr.hv_trace.emplace_back(done, moea::Hypervolume(pts, kReference));
    }
  };
  algorithm->Run(evaluator, evals, trace);

  std::vector<moea::ObjectiveVector> pts;
  for (const auto& e : archive.Entries()) {
    rr.min_quality = std::min(rr.min_quality, -e.objectives[0]);
    rr.max_quality = std::max(rr.max_quality, -e.objectives[0]);
    auto p = e.objectives;
    p[1] = std::min(p[1], kReference[1]);
    pts.push_back(p);
  }
  rr.front_size = archive.Size();
  rr.hypervolume = moea::Hypervolume(pts, kReference);
  return rr;
}

}  // namespace

int main() {
  bench::PrintHeader(
      "Ablation — exploration design choices (init bias, mutation strength)",
      "Hypervolume of the archive (reference: quality 0 %, 10^4 s, cost 2000);"
      "\nhigher is better. Quality span shows selection-density coverage.");

  const auto evals = bench::EnvU64("BISTDSE_CONV_EVALS", 15000);
  auto cs = casestudy::BuildCaseStudy();

  struct Config2 {
    const char* name;
    bool biased;
    double mutation_scale;
    bool spea2;
  };
  const Config2 configs[] = {
      {"NSGA-II uniform init, 1/n", false, 1.0, false},
      {"NSGA-II biased  init, 1/n", true, 1.0, false},
      {"NSGA-II biased  init, 3/n", true, 3.0, false},
      {"SPEA2   biased  init, 1/n", true, 1.0, true},
  };

  std::printf("\n  configuration                 | hypervolume | front | "
              "quality span [%%]\n");
  std::printf("  ------------------------------+-------------+-------+"
              "------------------\n");
  RunResult biased_1n, uniform_1n;
  for (const Config2& c : configs) {
    const auto rr = RunOnce(cs, c.biased, c.mutation_scale, evals, c.spea2);
    std::printf("  %-29s | %11.4g | %5zu | %5.1f .. %5.1f\n", c.name,
                rr.hypervolume, rr.front_size, rr.min_quality, rr.max_quality);
    if (c.biased && c.mutation_scale == 1.0 && !c.spea2) biased_1n = rr;
    if (!c.biased) uniform_1n = rr;
  }

  std::printf("\n  hypervolume over evaluations (biased init, 1/n):\n");
  for (const auto& [done, hv] : biased_1n.hv_trace) {
    std::printf("    %6zu evals: %.4g\n", done, hv);
  }

  const bool ok = biased_1n.hypervolume >= uniform_1n.hypervolume;
  std::printf("\n  check: biased phase initialization does not hurt (usually "
              "helps) hypervolume ... %s\n",
              ok ? "OK" : "VIOLATED");
  return ok ? 0 : 1;
}
