// Design-flow workloads: closed loops of whole design flows, each flow
// starting only when the previous one finished.
#include <algorithm>
#include <chrono>
#include <map>

#include "arch/corpus.hpp"
#include "bist/fault_dictionary.hpp"
#include "bist/profile_generator.hpp"
#include "casestudy/casestudy.hpp"
#include "dse/parallel.hpp"
#include "dse/report.hpp"
#include "net/campaign.hpp"
#include "sim/fault.hpp"
#include "stats_readers.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace bistdse::pipeline {

namespace {

using Clock = std::chrono::steady_clock;

/// Hash of a Pareto front: every objective of every entry, in front order.
void AddFront(Digest& digest, const std::vector<dse::ExplorationEntry>& front) {
  digest.Add(static_cast<std::uint64_t>(front.size()));
  for (const dse::ExplorationEntry& e : front) {
    digest.Add(e.objectives.test_quality_percent);
    digest.Add(e.objectives.shutoff_time_ms);
    digest.Add(e.objectives.monetary_cost);
  }
}

/// DSE through the island explorer, then the cheapest point reaching 80 %
/// quality. Records DSE/SAT counters; `pick` stays null (and the check
/// fails) when nothing reaches the bar.
struct Exploration {
  dse::ExplorationResult front;
  const dse::ExplorationEntry* pick = nullptr;
};

Exploration ExploreAndPick(const arch::Topology& topo,
                           const dse::ExplorationConfig& config,
                           std::size_t islands, SpanRecorder& spans,
                           Report& report, const std::string& label) {
  Exploration out;
  dse::ParallelResult parallel;
  {
    SpanRecorder::Scope scope(spans, "dse.explore", "dse");
    parallel = dse::ExploreParallel(topo.spec, topo.augmentation, config,
                                    islands);
  }
  ReadExploreStats(parallel, report);
  out.front.pareto = std::move(parallel.pareto);
  out.front.evaluations = parallel.evaluations;
  {
    SpanRecorder::Scope scope(spans, "dse.pick", "dse");
    const auto picks = dse::RankCheapestMeetingQuality(out.front, 80.0);
    if (!picks.empty()) out.pick = picks.front();
  }
  report.Check(out.pick != nullptr,
               label + ": no Pareto point reaches 80 % quality");
  return out;
}

/// Replays the pick's sessions under a baseline plus `rounds` adversarial
/// schedules. Every round must complete and hold the three PERF.md
/// invariants: the Eq.-1 lower bound, WCRT domination and non-intrusiveness.
/// The baseline's extra zero-loss upper band (1.05 q + per-block slack) is
/// counted, not failed: case-study designs picked over generated profiles
/// regularly miss it by a few percent.
void Campaign(const arch::Topology& topo, const model::Implementation& impl,
              std::size_t rounds, std::uint64_t seed, bool first_pass,
              SpanRecorder& spans, Report& report, const std::string& label) {
  net::CampaignScheduleSpec schedule;
  schedule.rounds = rounds;
  schedule.seed = seed;
  net::CampaignReport campaign;
  const auto t0 = Clock::now();
  {
    SpanRecorder::Scope scope(spans, "net.campaign", "net");
    campaign = net::RunAdversarialCampaign(topo.spec, topo.augmentation, impl,
                                           {}, schedule);
  }
  const double host_s = SecondsSince(t0);

  double sim_ms = 0.0;
  std::uint64_t band_misses = 0;
  for (std::size_t r = 0; r < campaign.rounds.size(); ++r) {
    const net::CampaignRound& round = campaign.rounds[r];
    const net::CampaignRound hard =
        net::JudgeExecution(round.report, round.faults, /*zero_loss=*/false);
    ++report.attempted;
    if (!hard.Passed()) ++report.failed;
    report.Check(hard.Passed(), label + " round " + std::to_string(r) + ": " +
                                    hard.failure);
    if (hard.Passed() && !round.Passed()) ++band_misses;
    for (const net::SessionExecution& s : round.report.sessions) {
      if (!s.executed || !s.completed) continue;
      sim_ms += s.simulated_total_ms;
      if (first_pass) {
        report.sim_ms.push_back(s.simulated_total_ms);
        report.digest.Add(s.simulated_total_ms);
      }
    }
  }
  report.Check(!campaign.rounds.empty(), label + ": campaign ran no rounds");
  if (first_pass) {
    report.digest.Add(campaign.total_retransmissions);
    report.digest.Add(campaign.total_frames_dropped);
    report.layer["net.zero_loss_band_misses"] +=
        static_cast<double>(band_misses);
  }
  ReadCampaignStats(campaign, report);
  report.PerFlow("net.sim_ms_per_host_s", host_s > 0 ? sim_ms / host_s : 0);
}

// --- design-casestudy ----------------------------------------------------------

struct CasestudySizes {
  netlist::RandomCircuitSpec cut;    ///< Seed k of the fixed CUT family.
  std::vector<std::uint64_t> prps;   ///< x 4 Table-I coverage variants.
  std::size_t evaluations;
  std::size_t rounds;        ///< Adversarial rounds after the baseline.
  std::size_t dictionaries;  ///< Most-deployed selected profiles.
  std::size_t dict_faults;   ///< Faults per dictionary.
  std::size_t cuts;          ///< Flows per pass.
};

/// The CUT is ScaledCutSpec's family shrunk to fit a run. Profile
/// generation time swings several-fold from circuit to circuit (PODEM
/// aborts), and the DSE pick decides how much campaign and dictionary work
/// follows, so the CUTs (seeds 1..cuts) and the DSE seeds are fixed: every
/// --seed asks for the same work. --seed draws the campaign loss schedules
/// and the dictionary fault samples.
CasestudySizes CasestudySizesFor(bool smoke) {
  netlist::RandomCircuitSpec cut = casestudy::ScaledCutSpec();
  cut.num_gates = smoke ? 300 : 800;
  cut.num_flops = smoke ? 32 : 96;
  cut.num_hard_blocks = smoke ? 2 : 4;
  cut.hard_block_width = 8;
  if (smoke) return {cut, {200, 500}, 300, 1, 1, 64, 1};
  return {cut, {500, 1000, 2000}, 2000, 3, 2, 256, 3};
}

/// The Table-I shape checks of bench_table1 on one generated profile set.
bool TableIShapeHolds(const std::vector<bist::BistProfile>& profiles,
                      std::size_t groups) {
  if (profiles.size() != 4 * groups) return false;
  for (std::size_t g = 0; g < groups; ++g) {
    const bist::BistProfile& maxcov = profiles[4 * g];
    const bist::BistProfile& c95 = profiles[4 * g + 3];
    if (maxcov.fault_coverage_percent < c95.fault_coverage_percent ||
        maxcov.data_bytes < c95.data_bytes) {
      return false;
    }
    if (g + 1 < groups && maxcov.runtime_ms >= profiles[4 * g + 4].runtime_ms) {
      return false;
    }
  }
  return profiles.front().num_deterministic_patterns >=
         profiles[4 * (groups - 1)].num_deterministic_patterns;
}

/// Profile indices the implementation's BIST test tasks select, the most
/// deployed (most ECUs) first, ties by index; at most `limit` of them.
std::vector<std::uint32_t> MostDeployedProfiles(
    const arch::Topology& topo, const model::Implementation& impl,
    std::size_t limit) {
  std::map<std::uint32_t, std::size_t> ecus;
  for (const auto& [ecu, programs] : topo.augmentation.programs_by_ecu) {
    for (const model::BistProgram& prog : programs) {
      if (impl.IsBound(topo.spec, prog.test_task)) ++ecus[prog.profile_index];
    }
  }
  std::vector<std::pair<std::size_t, std::uint32_t>> ranked;
  for (const auto& [index, count] : ecus) ranked.emplace_back(count, index);
  std::stable_sort(ranked.begin(), ranked.end(),
                   [](const auto& a, const auto& b) { return a.first > b.first; });
  std::vector<std::uint32_t> out;
  for (std::size_t i = 0; i < ranked.size() && i < limit; ++i) {
    out.push_back(ranked[i].second);
  }
  return out;
}

/// `count` distinct faults drawn from `faults` with a seeded partial shuffle.
std::vector<sim::StuckAtFault> SampleFaults(std::vector<sim::StuckAtFault> faults,
                                            std::size_t count,
                                            std::uint64_t seed) {
  util::SplitMix64 rng(seed);
  count = std::min(count, faults.size());
  for (std::size_t i = 0; i < count; ++i) {
    std::swap(faults[i], faults[i + rng.Below(faults.size() - i)]);
  }
  faults.resize(count);
  return faults;
}

/// What the untimed checks of a flow need: its dictionaries and sessions.
struct CasestudyFlow {
  std::vector<bist::FaultDictionary> dictionaries;
  std::vector<std::uint64_t> dictionary_prps;
  std::vector<std::vector<bist::EncodedPattern>> dictionary_patterns;
};

/// One design flow on one CUT: profiles -> case study -> DSE -> pick ->
/// campaign -> dictionaries for the most deployed selected profiles.
CasestudyFlow RunCasestudyFlow(const netlist::Netlist& cut,
                               std::size_t k, std::uint64_t flow_seed,
                               const CasestudySizes& sizes, bool first_pass,
                               SpanRecorder& spans, Report& report,
                               const std::string& label) {
  bist::ProfileGeneratorConfig config;
  config.stumps = casestudy::PaperStumpsConfig();
  config.prp_counts = sizes.prps;
  bist::ProfileGenerator generator(cut, config);
  std::vector<bist::BistProfile> profiles;
  {
    SpanRecorder::Scope scope(spans, "bist.profiles", "bist");
    profiles = generator.GenerateAll();
  }
  report.PerFlow("bist.profiles_aborted",
                 static_cast<double>(generator.Stats().aborted));
  report.Check(TableIShapeHolds(profiles, sizes.prps.size()),
               label + ": profiles violate the Table-I shape checks");
  if (first_pass) {
    for (const bist::BistProfile& p : profiles) {
      report.digest.Add(p.fault_coverage_percent);
      report.digest.Add(p.data_bytes);
    }
  }

  casestudy::CaseStudy cs;
  {
    SpanRecorder::Scope scope(spans, "arch.generate", "arch");
    cs = casestudy::BuildCaseStudy(profiles);
  }

  dse::ExplorationConfig explore;
  explore.evaluations = sizes.evaluations;
  explore.seed = k + 1;
  const Exploration ex = ExploreAndPick(cs, explore, 1, spans, report, label);
  CasestudyFlow flow;
  if (first_pass) AddFront(report.digest, ex.front.pareto);
  if (ex.pick == nullptr) return flow;
  if (first_pass) {
    report.layer["dse.pick_cost"] += ex.pick->objectives.monetary_cost;
  }

  Campaign(cs, ex.pick->implementation, sizes.rounds, flow_seed, first_pass,
           spans, report, label);

  // The artifact a fleet serves for this design: a fault dictionary of each
  // of the most deployed sessions.
  std::vector<sim::StuckAtFault> sample;
  {
    SpanRecorder::Scope scope(spans, "bist.dictionary", "bist");
    sample = SampleFaults(sim::CollapsedFaults(cut), sizes.dict_faults,
                          flow_seed);
  }
  const std::size_t variants = config.coverage_targets_percent.size();
  double fault_patterns = 0.0;
  const auto t0 = Clock::now();
  for (const std::uint32_t index : MostDeployedProfiles(
           cs, ex.pick->implementation, sizes.dictionaries)) {
    const std::size_t group = index / variants;
    const std::size_t variant = index % variants;
    bist::GeneratedProfile generated;
    {
      SpanRecorder::Scope scope(spans, "bist.profiles", "bist");
      generated = generator.GenerateOne(
          sizes.prps[group], config.coverage_targets_percent[variant],
          config.fill_seeds[variant]);
    }
    report.Check(generated.profile.num_deterministic_patterns ==
                     profiles[index].num_deterministic_patterns,
                 label + ": GenerateOne disagrees with GenerateAll on profile " +
                     std::to_string(index + 1));
    SpanRecorder::Scope scope(spans, "bist.dictionary", "bist");
    flow.dictionaries.emplace_back(cut, config.stumps, sizes.prps[group],
                                   generated.encoded_patterns, sample);
    flow.dictionary_prps.push_back(sizes.prps[group]);
    flow.dictionary_patterns.push_back(std::move(generated.encoded_patterns));
    fault_patterns +=
        static_cast<double>(sample.size()) *
        static_cast<double>(flow.dictionaries.back().TotalPatterns());
  }
  const double dict_s = SecondsSince(t0);
  report.PerFlow("bist.dictionary_fault_patterns_per_s",
                 dict_s > 0 ? fault_patterns / dict_s : 0.0);
  return flow;
}

/// Untimed check: some injected dictionary fault is diagnosed with a top
/// score of 2 (identical failing-window set, every signature matching).
void CheckDictionaries(const netlist::Netlist& cut, const CasestudyFlow& flow,
                       Report& report, const std::string& label) {
  report.Check(!flow.dictionaries.empty(), label + ": no dictionary built");
  bist::StumpsSession session(cut, casestudy::PaperStumpsConfig());
  for (std::size_t d = 0; d < flow.dictionaries.size(); ++d) {
    const bist::FaultDictionary& dict = flow.dictionaries[d];
    report.digest.Add(dict.TotalPatterns());
    report.digest.Add(static_cast<std::uint64_t>(dict.WindowCount()));
    bool diagnosed = false;
    for (std::size_t f = 0; f < dict.FaultCount() && !diagnosed; f += 7) {
      const auto result = session.Run(flow.dictionary_prps[d],
                                      flow.dictionary_patterns[d],
                                      dict.Faults()[f]);
      if (result.fail_data.empty()) continue;
      const auto ranking = dict.Diagnose(result.fail_data, 5);
      diagnosed = !ranking.empty() && ranking.front().score == 2.0;
      for (const auto& c : ranking) report.digest.Add(c.score);
    }
    report.Check(diagnosed, label + ": dictionary " + std::to_string(d) +
                                " explains no injected fault exactly");
  }
}

// --- design-corpus ---------------------------------------------------------------

struct CorpusSizes {
  std::vector<std::size_t> ecus;   ///< One topology per entry.
  std::vector<std::size_t> buses;
  std::size_t evaluations;         ///< Per island.
  std::size_t islands;
  std::size_t rounds;
};

CorpusSizes CorpusSizesFor(bool smoke) {
  if (smoke) return {{12, 20}, {2, 3}, 300, 2, 1};
  return {{20, 24, 28, 32, 36, 40, 45, 50}, {2, 3, 4, 5, 6, 7, 8, 4}, 3000, 2,
          1};
}

}  // namespace

Report RunDesignCasestudy(const Options& options, SpanRecorder& spans) {
  Report report;
  const CasestudySizes sizes = CasestudySizesFor(options.smoke);

  // Set-up makes the inputs: the CUT of each flow of a pass.
  const auto cuts = RepeatSetup(report, [&] {
    std::vector<netlist::Netlist> out;
    for (std::size_t k = 0; k < sizes.cuts; ++k) {
      netlist::RandomCircuitSpec spec = sizes.cut;
      spec.seed = k + 1;
      SpanRecorder::Scope scope(spans, "netlist.generate", "netlist");
      out.push_back(netlist::GenerateRandomCircuit(spec));
    }
    return out;
  });

  std::uint64_t flow_id = 0;
  RepeatPasses(options, 1, [&](std::size_t pass) {
    for (std::size_t k = 0; k < cuts.size(); ++k) {
      const std::uint64_t flow_seed = options.seed * 1000003 + k;
      const std::string label = "design-casestudy CUT " + std::to_string(k + 1);
      const std::size_t failures_before = report.failures.size();
      spans.SetFlow(++flow_id);
      const auto t0 = Clock::now();
      CasestudyFlow flow;
      {
        SpanRecorder::Scope scope(spans, "flow", "bench");
        flow = RunCasestudyFlow(cuts[k], k, flow_seed, sizes, pass == 0, spans,
                                report, label);
      }
      report.Flow(pass, SecondsSince(t0));
      if (pass == 0) CheckDictionaries(cuts[k], flow, report, label);
      ++report.attempted;
      if (report.failures.size() != failures_before) ++report.failed;
    }
  });
  return report;
}

Report RunDesignCorpus(const Options& options, SpanRecorder& spans) {
  Report report;
  const CorpusSizes sizes = CorpusSizesFor(options.smoke);

  // Set-up makes the inputs: one generated topology per stratum. As in
  // design-casestudy the structure and the DSE seeds are fixed, because the
  // pick a topology's front yields decides the campaign's cost; --seed
  // draws the campaign loss schedules.
  const auto topologies = RepeatSetup(report, [&] {
    std::vector<std::pair<arch::Topology, bool>> out;  // (topology, has FD)
    for (std::size_t k = 0; k < sizes.ecus.size(); ++k) {
      arch::CorpusSpec corpus;
      corpus.seed = 1;
      corpus.min_ecus = corpus.max_ecus = sizes.ecus[k];
      corpus.min_buses = corpus.max_buses = sizes.buses[k];
      corpus.profile_pool = casestudy::ScaledTableI(1.0 / 256, 4);
      const arch::TopologySpec spec = arch::SampleTopologySpec(corpus, k);
      SpanRecorder::Scope scope(spans, "arch.generate", "arch");
      out.emplace_back(
          arch::GenerateTopology(spec, arch::TopologySeed(corpus, k)),
          arch::CountFdBuses(spec) > 0);
    }
    return out;
  });

  std::uint64_t flow_id = 0;
  RepeatPasses(options, 1, [&](std::size_t pass) {
    for (std::size_t k = 0; k < topologies.size(); ++k) {
      const auto& [topo, fd] = topologies[k];
      const std::string label = "design-corpus topology " + std::to_string(k);
      const std::size_t failures_before = report.failures.size();
      spans.SetFlow(++flow_id);
      const auto t0 = Clock::now();
      {
        SpanRecorder::Scope scope(spans, "flow", "bench");
        dse::ExplorationConfig explore;
        explore.evaluations = sizes.evaluations;
        explore.seed = k + 1;
        explore.evaluation.use_can_fd = fd;
        const Exploration ex =
            ExploreAndPick(topo, explore, sizes.islands, spans, report, label);
        if (pass == 0) AddFront(report.digest, ex.front.pareto);
        if (ex.pick != nullptr) {
          if (pass == 0) {
            report.layer["dse.pick_cost"] += ex.pick->objectives.monetary_cost;
          }
          Campaign(topo, ex.pick->implementation, sizes.rounds,
                   options.seed ^ (0x94d049bb133111ebULL * (k + 1)), pass == 0,
                   spans, report, label);
        }
      }
      report.Flow(pass, SecondsSince(t0));
      ++report.attempted;
      if (report.failures.size() != failures_before) ++report.failed;
    }
  });
  return report;
}

}  // namespace bistdse::pipeline
