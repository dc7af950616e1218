// Field-flow workloads: an open loop of fail-data uploads into one
// serve::DiagnosisServer per episode, in simulated time. Arrivals follow a
// seeded Poisson process and are submitted a fixed look-ahead before their
// release, so the server's memory holds one episode's requests, not the
// generator's whole schedule.
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <stdexcept>

#include "bist/dictionary_store.hpp"
#include "netlist/random_circuit.hpp"
#include "serve/server.hpp"
#include "serve/wire.hpp"
#include "sim/fault.hpp"
#include "stats_readers.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace bistdse::pipeline {

namespace {

using Clock = std::chrono::steady_clock;
namespace fs = std::filesystem;

constexpr std::size_t kShards = 3;
constexpr std::uint64_t kBasePatterns = 256;
constexpr std::size_t kPayloadsPerShard = 128;
/// Simulated time per Run() call, and how far ahead of its release a
/// request is submitted.
constexpr double kStepMs = 250.0;
constexpr double kLookaheadMs = 1000.0;
/// Capacity ladder: offered rates and the p99 latency limit a rate must
/// meet (with no rejections and no growing backlog) to count as sustained.
constexpr double kLadderRps[] = {20, 30, 40, 50, 60, 80, 100, 120};
constexpr double kCapacityP99LimitMs = 300.0;
/// Every N-th answered request is re-diagnosed directly and compared.
constexpr std::uint64_t kCheckEvery = 50;

/// The shards' CUTs are fixed (the fail data's size, hence upload time,
/// depends on the circuit); --seed draws the field returns and arrivals.
netlist::RandomCircuitSpec ShardCutSpec(std::size_t shard) {
  netlist::RandomCircuitSpec spec;
  spec.num_inputs = 12;
  spec.num_outputs = 8;
  spec.num_flops = 24;
  spec.num_gates = 260;
  spec.num_hard_blocks = 2;
  spec.hard_block_width = 6;
  spec.seed = shard + 1;
  return spec;
}

/// 16-pattern windows and a 24-window fail memory: the base session (256
/// patterns) uses 16 windows, and rollouts past 384 patterns must re-widen
/// the windows, which Extend refuses.
bist::StumpsConfig ShardStumpsConfig() {
  bist::StumpsConfig config;
  config.signature_window = 16;
  config.max_windows_per_session = 24;
  config.prpg_seed = 0x51;
  return config;
}

bist::DictShardKey ShardKey(std::size_t shard) {
  return {"ecu-" + std::to_string(shard), "p1"};
}

/// The serving fleet's inputs: per shard a CUT, its candidate faults, a pool
/// of field fail data, and the base dictionary artifact on disk.
struct Fleet {
  bist::StumpsConfig config = ShardStumpsConfig();
  std::vector<netlist::Netlist> cuts;
  std::vector<std::vector<sim::StuckAtFault>> faults;
  std::vector<std::vector<std::vector<bist::FailDatum>>> payloads;
  fs::path dir;

  fs::path Artifact(std::uint32_t generation, std::size_t shard) const {
    char name[64];
    std::snprintf(name, sizeof name, "g%u-s%zu.bdict", generation, shard);
    return dir / name;
  }
};

/// Removes the artifact directory when the workload ends, also on errors.
struct ScopedDir {
  fs::path path;
  explicit ScopedDir(fs::path p) : path(std::move(p)) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~ScopedDir() {
    std::error_code ignored;
    fs::remove_all(path, ignored);
  }
  ScopedDir(const ScopedDir&) = delete;
  ScopedDir& operator=(const ScopedDir&) = delete;
};

Fleet SetUpFleet(std::uint64_t seed, const fs::path& dir, SpanRecorder& spans) {
  Fleet fleet;
  fleet.dir = dir;
  for (std::size_t s = 0; s < kShards; ++s) {
    {
      SpanRecorder::Scope scope(spans, "netlist.generate", "netlist");
      fleet.cuts.push_back(netlist::GenerateRandomCircuit(ShardCutSpec(s)));
    }
    const netlist::Netlist& cut = fleet.cuts.back();
    fleet.faults.push_back(sim::CollapsedFaults(cut));
    const auto& faults = fleet.faults.back();

    // Field returns: fail data of sampled injected faults.
    std::vector<sim::StuckAtFault> injected;
    util::SplitMix64 rng(seed ^ (0x9e3779b97f4a7c15ULL * (s + 1)));
    for (std::size_t i = 0; i < 4 * kPayloadsPerShard; ++i) {
      injected.push_back(faults[rng.Below(faults.size())]);
    }
    bist::StumpsSession session(cut, fleet.config);
    std::vector<std::vector<bist::FailDatum>> pool;
    for (auto& result : session.RunBatch(kBasePatterns, {}, injected)) {
      if (!result.fail_data.empty() && pool.size() < kPayloadsPerShard) {
        pool.push_back(std::move(result.fail_data));
      }
    }
    if (pool.empty()) throw std::runtime_error("no failing field session");
    fleet.payloads.push_back(std::move(pool));

    SpanRecorder::Scope scope(spans, "bist.dictionary", "bist");
    bist::FaultDictionary(cut, fleet.config, kBasePatterns, {}, faults)
        .Save(fleet.Artifact(0, s).string());
  }
  return fleet;
}

/// A dictionary store over generation `generation`'s artifacts, mmap-backed.
bist::DictionaryStore OpenGeneration(const Fleet& fleet,
                                     std::uint32_t generation) {
  bist::DictionaryStore store;
  for (std::size_t s = 0; s < kShards; ++s) {
    store.AddFromFile(ShardKey(s), fleet.Artifact(generation, s).string());
  }
  return store;
}

struct Arrival {
  double release_ms;
  std::size_t shard;
  std::size_t payload;
};

std::vector<Arrival> PoissonArrivals(const Fleet& fleet, double rate_rps,
                                     std::size_t count, std::uint64_t seed) {
  util::SplitMix64 rng(seed);
  std::vector<Arrival> out;
  double t = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    t += -std::log(1.0 - rng.UnitReal()) * 1e3 / rate_rps;
    const std::size_t shard = rng.Below(kShards);
    out.push_back({t, shard, rng.Below(fleet.payloads[shard].size())});
  }
  return out;
}

struct EpisodeSpec {
  double rate_rps = 40.0;
  std::size_t requests = 0;
  double drop = 0.01, corrupt = 0.0, reorder = 0.0;
  std::uint64_t seed = 1;
  std::uint64_t reload_every = 0;  ///< Answered requests per rollout; 0: none.
  std::uint64_t delta_patterns = 0;  ///< Session growth per rollout.
};

/// What an episode served: the server (outcomes, stats) and the inputs.
struct Episode {
  std::unique_ptr<serve::DiagnosisServer> server;
  std::vector<Arrival> arrivals;
  double run_s = 0.0;          ///< Host seconds inside Run().
  bool stalled = false;
  std::uint64_t rebuilds = 0;
  double dictionary_s = 0.0;            ///< Host seconds in Extend/rebuild.
  double dictionary_fault_patterns = 0.0;  ///< Faults x patterns simulated.
  std::uint32_t generations = 1;  ///< Published generations (base included).
};

/// One rollout: grow every shard's dictionary by ΔN (Extend, or a full
/// rebuild when the grown session re-widens its windows), publish the
/// artifacts, and hot-swap them into the running server.
void Rollout(const Fleet& fleet, std::vector<bist::FaultDictionary>& owned,
             std::uint64_t patterns, Episode& episode, SpanRecorder& spans) {
  SpanRecorder::Scope reload(spans, "serve.reload", "serve");
  const std::uint32_t generation = episode.generations;
  const auto t0 = Clock::now();
  for (std::size_t s = 0; s < kShards; ++s) {
    const double faults = static_cast<double>(owned[s].FaultCount());
    const std::uint64_t before = owned[s].TotalPatterns();
    try {
      SpanRecorder::Scope scope(spans, "bist.dictionary_extend", "bist");
      owned[s].Extend(fleet.cuts[s], fleet.config, patterns, {});
      episode.dictionary_fault_patterns +=
          faults * static_cast<double>(patterns - before);
    } catch (const std::invalid_argument&) {
      SpanRecorder::Scope scope(spans, "bist.dictionary_rebuild", "bist");
      owned[s] = bist::FaultDictionary(fleet.cuts[s], fleet.config, patterns,
                                       {}, fleet.faults[s]);
      ++episode.rebuilds;
      episode.dictionary_fault_patterns += faults * static_cast<double>(patterns);
    }
  }
  episode.dictionary_s += SecondsSince(t0);
  SpanRecorder::Scope scope(spans, "serve.reload_swap", "serve");
  for (std::size_t s = 0; s < kShards; ++s) {
    owned[s].Save(fleet.Artifact(generation, s).string());
  }
  const std::uint32_t version =
      episode.server->Store().Reload(OpenGeneration(fleet, generation));
  if (version != generation) {
    throw std::logic_error("rollout published an unexpected generation");
  }
  ++episode.generations;
}

Episode RunEpisode(const Fleet& fleet, const EpisodeSpec& spec,
                   SpanRecorder& spans) {
  Episode episode;
  episode.arrivals = PoissonArrivals(fleet, spec.rate_rps, spec.requests,
                                     spec.seed);
  std::vector<bist::FaultDictionary> owned;
  {
    SpanRecorder::Scope scope(spans, "serve.open", "serve");
    serve::DiagnosisServerConfig config;
    config.faults.drop_rate = spec.drop;
    config.faults.corrupt_rate = spec.corrupt;
    config.faults.reorder_rate = spec.reorder;
    config.faults.seed = spec.seed;
    episode.server = std::make_unique<serve::DiagnosisServer>(
        OpenGeneration(fleet, 0), config);
    if (spec.reload_every > 0) {
      for (std::size_t s = 0; s < kShards; ++s) {
        owned.push_back(
            bist::FaultDictionary::Load(fleet.Artifact(0, s).string()));
      }
    }
  }
  serve::DiagnosisServer& server = *episode.server;

  std::size_t next = 0;
  std::uint64_t reload_at = spec.reload_every;
  std::uint64_t patterns = kBasePatterns;
  while (next < episode.arrivals.size() || !server.AllDone()) {
    const double before_ms = server.NowMs();
    const double horizon_ms = before_ms + kStepMs;
    const std::size_t submitted_before = next;
    {
      SpanRecorder::Scope scope(spans, "serve.submit", "serve");
      while (next < episode.arrivals.size() &&
             (episode.arrivals[next].release_ms <= horizon_ms + kLookaheadMs ||
              server.AllDone())) {
        const Arrival& a = episode.arrivals[next++];
        server.Submit({ShardKey(a.shard), fleet.payloads[a.shard][a.payload]},
                      a.release_ms);
      }
    }
    {
      SpanRecorder::Scope scope(spans, "serve.run", "serve");
      const auto t0 = Clock::now();
      server.Run(horizon_ms);
      episode.run_s += SecondsSince(t0);
    }
    if (server.NowMs() == before_ms && next == submitted_before &&
        !server.AllDone()) {
      episode.stalled = true;  // Nothing can progress; outcomes show it.
      break;
    }
    if (reload_at > 0 && server.Stats().answered >= reload_at &&
        next < episode.arrivals.size()) {
      patterns += spec.delta_patterns;
      Rollout(fleet, owned, patterns, episode, spans);
      reload_at += spec.reload_every;
    }
  }
  return episode;
}

bool SameRanking(const std::vector<bist::DiagnosisCandidate>& a,
                 const std::vector<bist::DiagnosisCandidate>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const auto& x, const auto& y) {
                      return x.fault == y.fault &&
                             std::bit_cast<std::uint64_t>(x.score) ==
                                 std::bit_cast<std::uint64_t>(y.score);
                    });
}

/// Re-diagnoses answered requests directly — DiagnoseBatch on the generation
/// that served each one, in batches of the size the server formed on
/// average, with the wire codecs run as the server runs them — and compares
/// the rankings bit for bit. Checks every kCheckEvery-th request; a traced
/// run replays every answered request and times the diagnosis and wire
/// stages.
void Replay(const Fleet& fleet, const Episode& episode, bool all,
            SpanRecorder& spans, Report& report, const std::string& label) {
  const serve::DiagnosisServer& server = *episode.server;
  std::map<std::uint32_t, std::vector<std::uint64_t>> by_generation;
  std::uint64_t answered = 0;
  for (std::uint64_t id = 0; id < server.RequestCount(); ++id) {
    const serve::RequestOutcome& o = server.Outcome(id);
    if (o.status != serve::RequestStatus::Answered) continue;
    if (all || answered % kCheckEvery == 0) by_generation[o.generation].push_back(id);
    ++answered;
  }
  const serve::ServerStats& stats = server.Stats();
  const std::size_t batch = std::clamp<std::size_t>(
      stats.batches > 0 ? (stats.answered + stats.batches / 2) / stats.batches
                        : 1,
      1, serve::DiagnosisServerConfig{}.max_batch);
  const std::size_t top_k = serve::DiagnosisServerConfig{}.top_k;
  SpanRecorder::Scope root(spans, "replay", "bench");
  std::uint64_t mismatches = 0, queries = 0;
  double diagnose_s = 0.0;
  for (const auto& [generation, ids] : by_generation) {
    const bist::DictionaryStore store = OpenGeneration(fleet, generation);
    for (std::size_t i = 0; i < ids.size(); i += batch) {
      std::vector<bist::DictQuery> queries_in;
      std::vector<std::vector<std::uint8_t>> wires;
      {
        SpanRecorder::Scope scope(spans, "serve.wire", "serve");
        for (std::size_t j = i; j < std::min(ids.size(), i + batch); ++j) {
          const Arrival& a = episode.arrivals[ids[j]];
          queries_in.push_back(serve::wire::DecodeQuery(serve::wire::EncodeQuery(
              {ShardKey(a.shard), fleet.payloads[a.shard][a.payload]})));
        }
      }
      std::vector<std::vector<bist::DiagnosisCandidate>> rankings;
      {
        SpanRecorder::Scope scope(spans, "bist.diagnose_batch", "bist");
        const auto t0 = Clock::now();
        rankings = store.DiagnoseBatch(queries_in, top_k);
        diagnose_s += SecondsSince(t0);
      }
      SpanRecorder::Scope scope(spans, "serve.wire", "serve");
      for (std::size_t j = 0; j < rankings.size(); ++j) {
        const auto decoded =
            serve::wire::DecodeRanking(serve::wire::EncodeRanking(rankings[j]));
        if (!SameRanking(decoded, server.Outcome(ids[i + j]).ranking)) {
          ++mismatches;
        }
        ++queries;
      }
    }
  }
  if (all) {
    report.PerFlow("bist.diagnose_queries_per_s",
                   diagnose_s > 0 ? static_cast<double>(queries) / diagnose_s
                                  : 0);
  }
  report.Check(mismatches == 0,
               label + ": " + std::to_string(mismatches) + " of " +
                   std::to_string(queries) +
                   " served rankings differ from direct DiagnoseBatch");
}

/// Checks an episode, counts its requests, and records its per-layer
/// values. `deterministic` episodes also feed the deterministic outputs.
void ReadEpisode(const Episode& episode, const EpisodeSpec& spec,
                 bool deterministic, Report& report, const std::string& label) {
  const serve::DiagnosisServer& server = *episode.server;
  const serve::ServerStats& stats = server.Stats();
  const std::uint64_t not_answered = stats.submitted - stats.answered;
  report.attempted += stats.submitted;
  report.failed += not_answered;
  report.Check(!episode.stalled, label + ": server stalled");
  report.Check(stats.submitted == spec.requests && not_answered == 0,
               label + ": " + std::to_string(not_answered) + " of " +
                   std::to_string(stats.submitted) + " requests not answered (" +
                   std::to_string(stats.rejected_busy) + " rejected)");

  std::vector<double> lag, upload, answer;
  TransferTotals transfers;
  for (std::uint64_t id = 0; id < server.RequestCount(); ++id) {
    const serve::RequestOutcome& o = server.Outcome(id);
    transfers.Add(o.upload);
    transfers.Add(o.response);
    if (o.status != serve::RequestStatus::Answered) continue;
    lag.push_back(o.admitted_ms - o.release_ms);
    upload.push_back(o.upload_done_ms - o.admitted_ms);
    answer.push_back(o.answered_ms - o.upload_done_ms);
    if (deterministic) {
      report.sim_ms.push_back(o.answered_ms - o.release_ms);
      report.digest.Add(o.answered_ms - o.release_ms);
      report.digest.Add(static_cast<std::uint64_t>(o.generation));
      for (const auto& c : o.ranking) report.digest.Add(c.score);
    }
  }
  if (deterministic) {
    report.digest.Add(stats.batches);
    report.digest.Add(episode.rebuilds);
  }
  transfers.Record(report);
  const double answered = static_cast<double>(stats.answered);
  report.PerFlow("serve.req_per_s",
                 episode.run_s > 0 ? answered / episode.run_s : 0);
  report.PerFlow("serve.batches", static_cast<double>(stats.batches));
  report.PerFlow("serve.mean_batch_size",
                 stats.batches > 0 ? answered / static_cast<double>(stats.batches)
                                   : 0);
  for (const auto& [name, values] :
       {std::pair{"serve.release_lag_sim_ms", &lag},
        std::pair{"net.upload_sim_ms", &upload},
        std::pair{"serve.answer_sim_ms", &answer}}) {
    report.PerFlow(std::string(name) + "_p50", Percentile(*values, 0.5));
    report.PerFlow(std::string(name) + "_p999", Percentile(*values, 0.999));
  }
  if (spec.reload_every > 0) {
    report.PerFlow("bist.dictionary_rebuilds",
                   static_cast<double>(episode.rebuilds));
    report.PerFlow("bist.dictionary_fault_patterns_per_s",
                   episode.dictionary_s > 0
                       ? episode.dictionary_fault_patterns / episode.dictionary_s
                       : 0);
  }
}

/// Highest ladder rate that meets the p99 limit with no rejections, no
/// failures and a drain tail within the limit (no growing backlog).
void CapacityLadder(const Fleet& fleet, std::size_t requests,
                    std::uint64_t seed, Report& report) {
  SpanRecorder off(false);
  double capacity = 0.0;
  for (const double rate : kLadderRps) {
    EpisodeSpec spec;
    spec.rate_rps = rate;
    spec.requests = requests;
    spec.seed = seed ^ static_cast<std::uint64_t>(rate);
    const Episode episode = RunEpisode(fleet, spec, off);
    const serve::DiagnosisServer& server = *episode.server;
    std::vector<double> latency;
    for (std::uint64_t id = 0; id < server.RequestCount(); ++id) {
      const serve::RequestOutcome& o = server.Outcome(id);
      latency.push_back(o.status == serve::RequestStatus::Answered
                            ? o.answered_ms - o.release_ms
                            : HUGE_VAL);  // Refused or failed misses any limit.
    }
    const double p99 = Percentile(latency, 0.99);
    const double drain_ms = server.NowMs() - episode.arrivals.back().release_ms;
    const bool sustained = !episode.stalled && p99 <= kCapacityP99LimitMs &&
                           drain_ms <= kCapacityP99LimitMs;
    std::printf("  ladder %5.0f req/s: p99 %8.1f sim-ms, %llu rejected, "
                "drain %7.1f sim-ms -> %s\n",
                rate, p99,
                static_cast<unsigned long long>(server.Stats().rejected_busy),
                drain_ms, sustained ? "sustained" : "not sustained");
    report.digest.Add(p99);
    if (sustained) capacity = rate;
  }
  report.layer["serve.capacity_rps"] = capacity;
  report.digest.Add(capacity);
}

fs::path ArtifactDir() {
  // Beside the executable, i.e. inside the build tree of the checkout.
  return fs::read_symlink("/proc/self/exe").parent_path() /
         ("field-artifacts-" + std::to_string(::getpid()));
}

Report RunField(const Options& options, SpanRecorder& spans, bool reload) {
  Report report;
  const ScopedDir dir(ArtifactDir());
  const Fleet fleet = RepeatSetup(report, [&] {
    return SetUpFleet(options.seed, dir.path, spans);
  });

  // Short episodes, many per run: the median episode shrugs off the
  // seconds-long slow phases a shared host has. The first few episodes
  // (12000 requests, enough for a p99.9) feed the seed-determined outputs.
  EpisodeSpec spec;
  spec.requests = options.smoke ? 600 : 4000;
  const std::size_t deterministic = options.smoke ? 1 : 3;
  if (reload) {
    spec.drop = 0.05;
    spec.corrupt = spec.reorder = 0.01;
    // Three rollouts per episode (256 -> 320 -> 384 -> 448 patterns); the
    // third crosses the 24-window limit and falls back to a full rebuild.
    spec.reload_every = spec.requests / 4;
    spec.delta_patterns = 64;
  }
  const std::string name = reload ? "field-reload" : "field-steady";
  if (!reload) {
    CapacityLadder(fleet, options.smoke ? 200 : 1500, options.seed, report);
  }

  RepeatPasses(options, deterministic, [&](std::size_t pass) {
    spec.seed = options.seed * 1000003 + pass;
    const std::string label = name + " episode " + std::to_string(pass);
    spans.SetFlow(pass + 1);
    const auto t0 = Clock::now();
    Episode episode;
    {
      SpanRecorder::Scope scope(spans, "flow", "bench");
      episode = RunEpisode(fleet, spec, spans);
    }
    report.Flow(pass, SecondsSince(t0));
    ReadEpisode(episode, spec, pass < deterministic, report, label);
    Replay(fleet, episode, spans.Enabled(), spans, report, label);
  });

  if (!options.smoke) {
    report.Check(report.sim_ms.size() >= 11000,
                 name + ": fewer than 11000 answered requests for p99.9");
  }
  report.layer["serve.p999_sim_ms"] = Percentile(report.sim_ms, 0.999);
  return report;
}

}  // namespace

Report RunFieldSteady(const Options& options, SpanRecorder& spans) {
  return RunField(options, spans, false);
}

Report RunFieldReload(const Options& options, SpanRecorder& spans) {
  return RunField(options, spans, true);
}

}  // namespace bistdse::pipeline
