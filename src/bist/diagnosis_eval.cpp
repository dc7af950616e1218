#include "bist/diagnosis_eval.hpp"

#include <algorithm>

#include "util/thread_pool.hpp"

namespace bistdse::bist {

namespace {

struct SampleOutcome {
  bool escaped = false;
  bool top1 = false;
  bool topk = false;
  std::size_t rank = 0;
};

}  // namespace

DiagnosisAccuracy EvaluateDiagnosisAccuracy(
    const netlist::Netlist& netlist, const StumpsConfig& config,
    const DiagnosisEvalOptions& options) {
  DiagnosisAccuracy accuracy;
  accuracy.k = options.top_k;

  const auto faults = sim::CollapsedFaults(netlist);
  std::vector<std::size_t> samples;
  for (std::size_t fi = 0;
       fi < faults.size() && samples.size() < options.max_samples;
       fi += options.sample_stride) {
    samples.push_back(fi);
  }

  // Every sample is an independent inject -> session -> diagnose run; chunks
  // carry their own session/diagnosis engines (their golden caches are not
  // shareable across threads) and write one outcome slot per sample.
  std::vector<SampleOutcome> outcomes(samples.size());
  auto& pool = util::ThreadPool::Global();
  const std::size_t chunks =
      std::min(samples.empty() ? std::size_t{1} : samples.size(),
               options.threads ? options.threads : pool.WorkerCount() + 1);
  pool.ParallelFor(
      0, samples.size(), chunks,
      [&](std::size_t begin, std::size_t end, std::size_t /*slot*/) {
        // Each chunk already occupies one pool worker, so its engines
        // simulate serially (one-chunk loops, which run inline) but share
        // the evaluation's block width. Signatures and rankings
        // are bit-identical for every width/thread combination.
        StumpsConfig chunk_config = config;
        chunk_config.sim_threads = 1;
        chunk_config.sim_block_width = options.block_width;
        StumpsSession session(netlist, chunk_config);
        SignatureDiagnosis diagnosis(netlist, chunk_config,
                                     options.num_random_patterns, {},
                                     options.block_width, /*threads=*/1);
        for (std::size_t s = begin; s < end; ++s) {
          SampleOutcome& outcome = outcomes[s];
          const auto result =
              session.Run(options.num_random_patterns, {}, faults[samples[s]]);
          if (result.fail_data.empty()) {
            outcome.escaped = true;
            continue;
          }
          // Rank against the full candidate universe.
          const auto ranked =
              diagnosis.Diagnose(result.fail_data, faults, faults.size());
          std::size_t rank = ranked.size();
          for (std::size_t r = 0; r < ranked.size(); ++r) {
            if (ranked[r].fault == faults[samples[s]]) {
              rank = r + 1;
              break;
            }
          }
          outcome.rank = rank;
          outcome.top1 =
              rank == 1 ||
              (ranked.size() > 1 && rank <= ranked.size() &&
               ranked[0].score == ranked[rank - 1].score);
          outcome.topk = rank <= options.top_k;
        }
      });

  // Serial reduction in sample order — identical to the serial loop.
  double rank_sum = 0.0;
  for (const SampleOutcome& outcome : outcomes) {
    if (outcome.escaped) {
      ++accuracy.escaped;
      continue;
    }
    ++accuracy.injected;
    rank_sum += static_cast<double>(outcome.rank);
    if (outcome.top1) ++accuracy.top1;
    if (outcome.topk) ++accuracy.topk;
  }
  accuracy.mean_rank =
      accuracy.injected ? rank_sum / static_cast<double>(accuracy.injected)
                        : 0.0;
  return accuracy;
}

}  // namespace bistdse::bist
