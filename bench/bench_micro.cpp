// Micro-benchmarks (google-benchmark) for the substrate layers: logic/fault
// simulation, PODEM, reseeding, SAT decoding, CAN response-time analysis.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <string_view>
#include <thread>

#include "atpg/podem.hpp"
#include "bench_report.hpp"
#include "bist/reseeding.hpp"
#include "can/bus.hpp"
#include "casestudy/casestudy.hpp"
#include "dse/decoder.hpp"
#include "dse/routing_encoding.hpp"
#include "dse/objectives.hpp"
#include "netlist/random_circuit.hpp"
#include "bist/fault_dictionary.hpp"
#include "bist/profile_generator.hpp"
#include "bist/scan_sim.hpp"
#include "sim/fault_sim.hpp"
#include "sim/parallel_fault_sim.hpp"
#include "sim/transition_fault.hpp"
#include "util/rng.hpp"

using namespace bistdse;

namespace {

const netlist::Netlist& Cut() {
  static const netlist::Netlist cut = [] {
    auto spec = casestudy::ScaledCutSpec(1);
    return netlist::GenerateRandomCircuit(spec);
  }();
  return cut;
}

void BM_LogicSim64Patterns(benchmark::State& state) {
  const auto& cut = Cut();
  sim::LogicSimulator simulator(cut);
  util::SplitMix64 rng(1);
  std::vector<sim::PatternWord> words(cut.CoreInputs().size());
  for (auto& w : words) w = rng();
  for (auto _ : state) {
    simulator.Simulate(words);
    benchmark::DoNotOptimize(simulator.ValueOf(cut.CoreOutputs()[0]));
  }
  state.SetItemsProcessed(state.iterations() * 64);
  state.counters["gate_evals/s"] = benchmark::Counter(
      static_cast<double>(state.iterations() * cut.CombinationalGateCount()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_LogicSim64Patterns);

void BM_FaultSimBlock(benchmark::State& state) {
  const auto& cut = Cut();
  sim::FaultSimulator fsim(cut);
  const auto faults = sim::CollapsedFaults(cut);
  util::SplitMix64 rng(2);
  std::vector<sim::PatternWord> words(cut.CoreInputs().size());
  for (auto& w : words) w = rng();
  fsim.SetPatternBlock(words);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fsim.DetectWord(faults[i]));
    i = (i + 997) % faults.size();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FaultSimBlock);

const std::vector<sim::BitPattern>& BenchPatterns() {
  static const std::vector<sim::BitPattern> patterns = [] {
    util::SplitMix64 rng(9);
    const std::size_t width = Cut().CoreInputs().size();
    std::vector<sim::BitPattern> out(512);
    for (auto& p : out) {
      p.resize(width);
      for (auto& b : p) b = rng.Chance(0.5);
    }
    return out;
  }();
  return patterns;
}

// Serial baseline for the fault-simulation speedup trajectory: full
// drop-list sweep of every collapsed fault over 512 patterns.
void BM_CountDetectedFaults(benchmark::State& state) {
  const auto& cut = Cut();
  const auto faults = sim::CollapsedFaults(cut);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sim::CountDetectedFaults(cut, BenchPatterns(), faults));
  }
  state.SetItemsProcessed(state.iterations() * faults.size());
}
BENCHMARK(BM_CountDetectedFaults)->Unit(benchmark::kMillisecond);

// Fault-partitioned parallel sweep; Arg = thread count. Results are
// bit-identical to the serial baseline for every arg.
void BM_ParallelCountDetectedFaults(benchmark::State& state) {
  const auto& cut = Cut();
  const auto faults = sim::CollapsedFaults(cut);
  const auto threads = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sim::ParallelCountDetectedFaults(cut, BenchPatterns(), faults, threads));
  }
  state.SetItemsProcessed(state.iterations() * faults.size());
  state.counters["threads"] = static_cast<double>(threads);
}
BENCHMARK(BM_ParallelCountDetectedFaults)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

// Raw PPSFP datapath throughput: detect every fault against every pattern
// block, no dropping — the access pattern of the dictionary build and
// signature diagnosis. One sweep at width W covers W*64 patterns, and the
// faulty activity cone of a wide block is the union of W narrow cones, so
// patterns/s scales superlinearly in sweep savings (see docs/PERF.md).
template <std::size_t W>
std::uint64_t PpsfpDetectSweep(const netlist::Netlist& cut,
                               std::span<const sim::BitPattern> patterns,
                               std::span<const sim::StuckAtFault> faults) {
  sim::FaultSimulatorT<W> fsim(cut);
  const std::size_t width = cut.CoreInputs().size();
  std::uint64_t detected = 0;
  for (std::size_t base = 0; base < patterns.size(); base += W * 64) {
    const std::size_t count =
        std::min<std::size_t>(W * 64, patterns.size() - base);
    fsim.SetPatternBlock(
        sim::PackPatternBlockWide(patterns, base, count, width, W));
    const sim::WideWord<W> mask = sim::BlockMaskWide<W>(count);
    for (const sim::StuckAtFault& f : faults) {
      detected += (fsim.DetectBlock(f) & mask).Any();
    }
  }
  return detected;
}

// Arg = block width W. The detect count is identical for every W.
void BM_PpsfpThroughput(benchmark::State& state) {
  const auto& cut = Cut();
  const auto faults = sim::CollapsedFaults(cut);
  const auto w = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::DispatchBlockWidth(w, [&](auto width) {
      benchmark::DoNotOptimize(
          PpsfpDetectSweep<width()>(cut, BenchPatterns(), faults));
    });
  }
  state.SetItemsProcessed(state.iterations() * faults.size());
  state.counters["block_width"] = static_cast<double>(w);
  state.counters["patterns/s"] = benchmark::Counter(
      static_cast<double>(state.iterations() * BenchPatterns().size()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_PpsfpThroughput)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

// Drop-list sweep at width W, single-threaded. Wide blocks trade dropping
// granularity for sweep savings, so unlike BM_PpsfpThroughput this does NOT
// improve with W on drop-heavy pattern sets — the measured reason the
// profile generator's random phase runs a narrow warm-up first.
void BM_WideCountDetectedFaults(benchmark::State& state) {
  const auto& cut = Cut();
  const auto faults = sim::CollapsedFaults(cut);
  const auto w = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sim::CountDetectedFaults(cut, BenchPatterns(), faults, w));
  }
  state.SetItemsProcessed(state.iterations() * faults.size());
  state.counters["block_width"] = static_cast<double>(w);
  state.counters["patterns/s"] = benchmark::Counter(
      static_cast<double>(state.iterations() * BenchPatterns().size()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_WideCountDetectedFaults)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

// Width x threads: the wide datapath composes multiplicatively with the
// fault-partitioned pool. Args = {block width W, thread count}.
void BM_WideParallelCountDetectedFaults(benchmark::State& state) {
  const auto& cut = Cut();
  const auto faults = sim::CollapsedFaults(cut);
  const auto w = static_cast<std::size_t>(state.range(0));
  const auto threads = static_cast<std::size_t>(state.range(1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::ParallelCountDetectedFaults(
        cut, BenchPatterns(), faults, threads, w));
  }
  state.SetItemsProcessed(state.iterations() * faults.size());
  state.counters["block_width"] = static_cast<double>(w);
  state.counters["threads"] = static_cast<double>(threads);
  state.counters["patterns/s"] = benchmark::Counter(
      static_cast<double>(state.iterations() * BenchPatterns().size()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_WideParallelCountDetectedFaults)
    ->Args({1, 4})
    ->Args({2, 4})
    ->Args({4, 4})
    ->Args({8, 4})
    ->Unit(benchmark::kMillisecond);

// Random phase of the profile generator (coverage target 0 skips the PODEM
// top-up); Args = {thread count, block width W}, {1, 1} being the serial
// narrow baseline. The profile table is identical for every combination.
void BM_ProfileRandomPhase(benchmark::State& state) {
  const auto& cut = Cut();
  bist::ProfileGeneratorConfig config;
  config.stumps = casestudy::PaperStumpsConfig();
  config.prp_counts = {4096};
  config.coverage_targets_percent = {0.0};
  config.fill_seeds = {11};
  config.threads = static_cast<std::size_t>(state.range(0));
  config.block_width = static_cast<std::size_t>(state.range(1));
  for (auto _ : state) {
    bist::ProfileGenerator generator(cut, config);
    benchmark::DoNotOptimize(generator.GenerateAll());
  }
  state.counters["threads"] = static_cast<double>(config.threads);
  state.counters["block_width"] = static_cast<double>(config.block_width);
}
BENCHMARK(BM_ProfileRandomPhase)
    ->Args({1, 1})
    ->Args({1, 4})
    ->Args({2, 4})
    ->Args({4, 4})
    ->Args({8, 4})
    ->Args({8, 8})
    ->Unit(benchmark::kMillisecond);

void BM_PodemEasyFault(benchmark::State& state) {
  const auto& cut = Cut();
  atpg::Podem podem(cut, 100);
  const auto faults = sim::CollapsedFaults(cut);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(podem.Generate(faults[i]));
    i = (i + 131) % faults.size();
  }
}
BENCHMARK(BM_PodemEasyFault);

// Encodes a cycle of seeded cubes with 4 to 97 care bits, so the LFSR
// degree changes from call to call as it does over PODEM's cubes. The
// encoder keeps no per-degree state: every call builds its rows.
void BM_ReseedingEncode(benchmark::State& state) {
  const auto width = static_cast<std::uint32_t>(Cut().CoreInputs().size());
  const bist::ReseedingEncoder encoder(width);
  util::SplitMix64 rng(3);
  std::vector<atpg::TestCube> cubes(32);
  for (std::size_t c = 0; c < cubes.size(); ++c) {
    cubes[c].bits.assign(width, atpg::Value3::X);
    for (std::size_t k = 0; k < 4 + 3 * c; ++k) {
      cubes[c].bits[rng.Below(width)] =
          rng.Chance(0.5) ? atpg::Value3::One : atpg::Value3::Zero;
    }
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(encoder.Encode(cubes[i]));
    i = (i + 1) % cubes.size();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ReseedingEncode);

void BM_SatDecode(benchmark::State& state) {
  static auto cs = casestudy::BuildCaseStudy();
  static dse::SatDecoder decoder(cs.spec, cs.augmentation);
  util::SplitMix64 rng(4);
  for (auto _ : state) {
    const auto genotype = moea::RandomGenotype(decoder.GenotypeSize(), rng);
    benchmark::DoNotOptimize(decoder.Decode(genotype));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SatDecode);

void BM_RoutedSatDecode(benchmark::State& state) {
  // The complete time-indexed routing encoding (Eqs. 2b-2g searched by the
  // solver) vs the derived-routing decoder above.
  static auto profiles = [] {
    auto p = casestudy::PaperTableI();
    p.resize(4);
    return p;
  }();
  static auto cs = casestudy::BuildCaseStudy(profiles, 42);
  static dse::RoutedSatDecoder decoder(cs.spec, cs.augmentation);
  util::SplitMix64 rng(6);
  for (auto _ : state) {
    const auto genotype = moea::RandomGenotype(decoder.GenotypeSize(), rng);
    benchmark::DoNotOptimize(decoder.Decode(genotype));
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["sat_vars"] =
      static_cast<double>(decoder.VariableCount());
}
BENCHMARK(BM_RoutedSatDecode);

void BM_EvaluateObjectives(benchmark::State& state) {
  static auto cs = casestudy::BuildCaseStudy();
  static dse::SatDecoder decoder(cs.spec, cs.augmentation);
  util::SplitMix64 rng(5);
  const auto impl =
      decoder.Decode(moea::RandomGenotype(decoder.GenotypeSize(), rng));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        dse::EvaluateImplementation(cs.spec, cs.augmentation, *impl));
  }
}
BENCHMARK(BM_EvaluateObjectives);

void BM_ScanShiftCapture(benchmark::State& state) {
  const auto& cut = Cut();
  bist::ScanChainSimulator scan(cut, 100);
  util::SplitMix64 rng(7);
  sim::BitPattern pattern(cut.CoreInputs().size());
  for (auto& b : pattern) b = rng.Chance(0.5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(scan.ApplyAndObserve(pattern));
  }
  state.counters["cycles/pattern"] =
      static_cast<double>(scan.CyclesPerPattern());
}
BENCHMARK(BM_ScanShiftCapture);

void BM_TransitionFaultDetect(benchmark::State& state) {
  const auto& cut = Cut();
  sim::TransitionFaultSimulator tsim(cut);
  const auto faults = sim::TransitionFaults(cut);
  util::SplitMix64 rng(8);
  std::vector<sim::PatternWord> v1(cut.CoreInputs().size());
  for (auto& w : v1) w = rng();
  const auto v2 = sim::TransitionFaultSimulator::LaunchOnCapture(cut, v1);
  tsim.SetPatternPairBlock(v1, v2);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tsim.DetectWord(faults[i]));
    i = (i + 613) % faults.size();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TransitionFaultDetect);

void BM_CanResponseTimeAnalysis(benchmark::State& state) {
  can::CanBus bus("b", 500e3);
  for (int i = 0; i < 20; ++i) {
    can::CanMessage m;
    m.id = static_cast<can::CanId>(i * 16);
    m.payload_bytes = 1 + i % 8;
    m.period_ms = 5.0 * (1 + i % 5);
    m.name = std::string(1, 'm');
    m.name += std::to_string(i);
    bus.AddMessage(m);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(bus.AllResponseTimes());
  }
}
BENCHMARK(BM_CanResponseTimeAnalysis);

// Parallel no-drop detect sweep for the JSON grid: the fault loop of each
// block fans out over `threads` workers.
template <std::size_t W>
std::uint64_t ParallelPpsfpDetectSweep(
    const netlist::Netlist& cut, std::span<const sim::BitPattern> patterns,
    std::span<const sim::StuckAtFault> faults, std::size_t threads) {
  sim::ParallelFaultSimulatorT<W> fsim(cut, threads);
  const std::size_t width = cut.CoreInputs().size();
  std::vector<sim::WideWord<W>> detect(faults.size());
  std::uint64_t detected = 0;
  for (std::size_t base = 0; base < patterns.size(); base += W * 64) {
    const std::size_t count =
        std::min<std::size_t>(W * 64, patterns.size() - base);
    fsim.SetPatternBlock(
        sim::PackPatternBlockWide(patterns, base, count, width, W));
    const sim::WideWord<W> mask = sim::BlockMaskWide<W>(count);
    fsim.DetectBlocks(faults, detect);
    for (const auto& d : detect) detected += (d & mask).Any();
  }
  return detected;
}

// Machine-readable PPSFP throughput sweep (patterns/s over the width x
// thread grid), independent of google-benchmark's own reporters so CI can
// track the wide-datapath speedup as one small artifact. Measures the raw
// no-drop datapath (see BM_PpsfpThroughput).
int WritePpsfpJson(const char* path) {
  const auto& cut = Cut();
  const auto& patterns = BenchPatterns();
  const auto faults = sim::CollapsedFaults(cut);
  const std::size_t hw = std::max(2u, std::thread::hardware_concurrency());

  bench::Report report("ppsfp_detect_throughput");
  report.Run()
      .Set("patterns", patterns.size())
      .Set("collapsed_faults", faults.size());
  double base = 0.0;  // W=1, 1 thread: the first cell
  for (const std::size_t threads : {std::size_t{1}, hw}) {
    for (const std::size_t w : sim::kSupportedBlockWidths) {
      // Time whole sweeps until the sample is long enough to be stable;
      // each sweep applies every pattern to every fault.
      const auto t0 = std::chrono::steady_clock::now();
      std::size_t iters = 0;
      double elapsed = 0.0;
      do {
        sim::DispatchBlockWidth(w, [&](auto width_c) {
          if (threads == 1) {
            benchmark::DoNotOptimize(
                PpsfpDetectSweep<width_c()>(cut, patterns, faults));
          } else {
            benchmark::DoNotOptimize(ParallelPpsfpDetectSweep<width_c()>(
                cut, patterns, faults, threads));
          }
        });
        ++iters;
        elapsed = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
      } while (elapsed < 0.4 || iters < 3);
      const double rate =
          static_cast<double>(iters * patterns.size()) / elapsed;
      if (base == 0.0) base = rate;
      report.AddRow("results")
          .Set("block_width", w)
          .Set("threads", threads)
          .Set("patterns_per_second", rate)
          .Set("speedup_vs_w1t1", rate / base);
    }
  }
  return report.Finish(path);
}

}  // namespace

int main(int argc, char** argv) {
  const char* json_path = nullptr;
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    constexpr std::string_view kFlag = "--ppsfp_json=";
    if (std::string_view(argv[i]).starts_with(kFlag)) {
      json_path = argv[i] + kFlag.size();
    } else {
      args.push_back(argv[i]);
    }
  }
  if (json_path) {
    const int rc = WritePpsfpJson(json_path);
    if (rc != 0) return rc;
  }
  int filtered_argc = static_cast<int>(args.size());
  benchmark::Initialize(&filtered_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(filtered_argc, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
