#include "arch/corpus.hpp"

#include <algorithm>
#include <chrono>
#include <sstream>
#include <stdexcept>

#include "dse/parallel.hpp"
#include "dse/report.hpp"
#include "util/rng.hpp"

namespace bistdse::arch {

namespace {

double Seconds(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       since)
      .count();
}

}  // namespace

TopologySpec SampleTopologySpec(const CorpusSpec& corpus, std::size_t index) {
  if (corpus.profile_pool.empty()) {
    throw std::invalid_argument("CorpusSpec.profile_pool: must not be empty");
  }
  if (corpus.min_buses == 0 || corpus.min_buses > corpus.max_buses) {
    throw std::invalid_argument(
        "CorpusSpec.min_buses/max_buses: need 1 <= min <= max");
  }
  if (corpus.min_ecus > corpus.max_ecus) {
    throw std::invalid_argument("CorpusSpec.min_ecus/max_ecus: min > max");
  }
  if (corpus.max_generations == 0) {
    throw std::invalid_argument("CorpusSpec.max_generations: must be >= 1");
  }

  util::SplitMix64 rng(corpus.seed ^ (0xd1342543de82ef95ULL * (index + 1)));
  TopologySpec spec;
  spec.name = "corpus" + std::to_string(index);

  const std::size_t nbuses =
      corpus.min_buses + rng.Below(corpus.max_buses - corpus.min_buses + 1);
  spec.buses.clear();
  for (std::size_t b = 0; b < nbuses; ++b) {
    BusSpec bus;
    bus.fd = rng.Chance(corpus.fd_fraction);
    // Occasional high-speed backbone segment, as in the future case study.
    if (b > 0 && rng.Chance(0.25)) bus.bitrate_bps = 1e6;
    spec.buses.push_back(bus);
  }

  // Bus count first, then ECUs from [max(min_ecus, 2 * buses), max_ecus]:
  // every bus hosts >= 2 ECUs, so the derived chains always validate.
  const std::size_t ecu_floor = std::max(corpus.min_ecus, 2 * nbuses);
  const std::size_t ecu_ceil = std::max(ecu_floor, corpus.max_ecus);
  spec.num_ecus = ecu_floor + rng.Below(ecu_ceil - ecu_floor + 1);
  spec.num_sensors = nbuses + rng.Below(nbuses + 1);
  spec.num_actuators = 1 + rng.Below(nbuses);
  spec.chain_processing_min = 3;
  spec.chain_processing_max = 6;

  const std::size_t generations = 1 + rng.Below(corpus.max_generations);
  spec.profile_sets.resize(generations);
  spec.profile_sets[0] = corpus.profile_pool;
  for (std::size_t g = 1; g < generations; ++g) {
    spec.profile_sets[g] = NextGenerationProfiles(spec.profile_sets[g - 1]);
  }
  return spec;
}

std::uint64_t TopologySeed(const CorpusSpec& corpus, std::size_t index) {
  return corpus.seed ^ (0x2545f4914f6cdd1dULL * (index + 1));
}

CorpusSweepReport SweepCorpus(const CorpusSpec& corpus,
                              const CorpusSweepOptions& options) {
  CorpusSweepReport report;
  for (std::size_t i = 0; i < corpus.count; ++i) {
    const TopologySpec spec = SampleTopologySpec(corpus, i);
    const Topology topo = GenerateTopology(spec, TopologySeed(corpus, i));

    CorpusTopologyResult result;
    result.name = spec.name;
    result.num_ecus = spec.num_ecus;
    result.num_buses = spec.buses.size();
    result.fd_buses = CountFdBuses(spec);
    result.generations = spec.profile_sets.size();
    result.content_hash = model::ContentHash(topo.spec);

    dse::ExplorationConfig config = options.exploration;
    config.evaluation.use_can_fd |= result.fd_buses > 0;

    const auto t_explore = std::chrono::steady_clock::now();
    const dse::ExplorationResult front =
        dse::ExploreParallel(topo.spec, topo.augmentation, config, 1);
    result.explore_seconds = Seconds(t_explore);
    result.pareto_size = front.pareto.size();

    if (front.pareto.empty()) {
      result.passed = false;
      report.all_passed = false;
      report.topologies.push_back(std::move(result));
      continue;
    }
    const auto picks =
        dse::RankCheapestMeetingQuality(front, options.min_quality_percent);
    const dse::ExplorationEntry* pick;
    if (!picks.empty()) {
      pick = picks.front();
      result.representative_meets_quality = true;
    } else {
      // Nothing reaches the bar (tiny budget / weak pool): campaign the
      // best-quality point so the invariants are still exercised.
      pick = &*std::max_element(
          front.pareto.begin(), front.pareto.end(),
          [](const auto& a, const auto& b) {
            return a.objectives.test_quality_percent <
                   b.objectives.test_quality_percent;
          });
    }
    result.representative = pick->objectives;

    net::CampaignScheduleSpec schedule = options.campaign;
    schedule.seed ^= 0x94d049bb133111ebULL * (i + 1);
    const auto t_campaign = std::chrono::steady_clock::now();
    result.campaign = net::RunAdversarialCampaign(
        topo.spec, topo.augmentation, pick->implementation, options.executor,
        schedule);
    result.campaign_seconds = Seconds(t_campaign);
    result.passed = result.campaign.Passed();
    report.rounds_executed += result.campaign.rounds.size();
    report.all_passed &= result.passed;
    report.topologies.push_back(std::move(result));
  }
  return report;
}

std::string FormatCorpusReport(const CorpusSweepReport& report) {
  std::ostringstream ss;
  ss << "| topology | ecus | buses (fd) | gens | front | quality % | cost | "
        "rounds | dropped | verdict |\n";
  ss << "|---|---|---|---|---|---|---|---|---|---|\n";
  for (const CorpusTopologyResult& t : report.topologies) {
    ss << "| " << t.name << " | " << t.num_ecus << " | " << t.num_buses
       << " (" << t.fd_buses << ") | " << t.generations << " | "
       << t.pareto_size << " | " << t.representative.test_quality_percent
       << " | " << t.representative.monetary_cost << " | "
       << t.campaign.rounds.size() << " | "
       << t.campaign.total_frames_dropped << " | "
       << (t.passed ? "pass" : "FAIL");
    if (!t.passed) {
      for (const net::CampaignRound& r : t.campaign.rounds) {
        if (!r.Passed()) {
          ss << " (" << r.failure << ")";
          break;
        }
      }
    }
    ss << " |\n";
  }
  ss << (report.all_passed ? "all invariants held" : "INVARIANT VIOLATION")
     << " over " << report.rounds_executed << " campaign rounds on "
     << report.topologies.size() << " topologies\n";
  return ss.str();
}

}  // namespace bistdse::arch
