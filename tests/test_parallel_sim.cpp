// Serial-vs-parallel equivalence of the fault-partitioned simulation layer
// plus unit tests of the shared thread pool. Everything parallel in this
// library must be bit-identical to its serial path for any thread count —
// these tests pin that contract at 1, 2 and 8 threads.
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <vector>

#include "bist/diagnosis_eval.hpp"
#include "bist/fault_dictionary.hpp"
#include "bist/profile_generator.hpp"
#include "sim/fault_sim.hpp"
#include "sim/parallel_fault_sim.hpp"
#include "sim/pattern_set.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace bistdse {
namespace {

using sim::BitPattern;
using sim::FaultSimulator;
using sim::ParallelFaultSimulator;
using sim::PatternWord;
using sim::StuckAtFault;
using util::ThreadPool;

std::vector<BitPattern> RandomPatterns(std::size_t count, std::size_t width,
                                       std::uint64_t seed) {
  util::SplitMix64 rng(seed);
  std::vector<BitPattern> patterns(count);
  for (auto& p : patterns) {
    p.resize(width);
    for (auto& b : p) b = rng.Chance(0.5);
  }
  return patterns;
}

// ---------------------------------------------------------------------------
// Thread pool.

TEST(ThreadPool, EmptyRangeNeverInvokesBody) {
  ThreadPool pool(2);
  bool called = false;
  pool.ParallelFor(5, 5, 4, [&](std::size_t, std::size_t, std::size_t) {
    called = true;
  });
  pool.ParallelFor(7, 3, 4, [&](std::size_t, std::size_t, std::size_t) {
    called = true;
  });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, CoversEveryIndexExactlyOnceWithBoundedSlots) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 1000;
  constexpr std::size_t kChunks = 8;
  std::vector<std::atomic<int>> visits(kN);
  std::atomic<std::size_t> max_slot{0};
  pool.ParallelFor(0, kN, kChunks,
                   [&](std::size_t begin, std::size_t end, std::size_t slot) {
                     std::size_t seen = max_slot.load();
                     while (slot > seen &&
                            !max_slot.compare_exchange_weak(seen, slot)) {
                     }
                     for (std::size_t i = begin; i < end; ++i) ++visits[i];
                   });
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(visits[i].load(), 1) << "index " << i;
  }
  EXPECT_LT(max_slot.load(), kChunks);
}

TEST(ThreadPool, PropagatesExceptionsAndStaysUsable) {
  ThreadPool pool(3);
  EXPECT_THROW(
      pool.ParallelFor(0, 100, 8,
                       [&](std::size_t begin, std::size_t, std::size_t) {
                         if (begin >= 50) throw std::runtime_error("boom");
                       }),
      std::runtime_error);
  // The pool must survive a throwing loop and run the next one normally.
  std::atomic<std::size_t> sum{0};
  pool.ParallelFor(0, 100, 8,
                   [&](std::size_t begin, std::size_t end, std::size_t) {
                     for (std::size_t i = begin; i < end; ++i) sum += i;
                   });
  EXPECT_EQ(sum.load(), 100u * 99u / 2);
}

TEST(ThreadPool, NestedLoopsEnqueueWithoutDeadlock) {
  ThreadPool pool(2);
  std::vector<std::atomic<int>> visits(64 * 16);
  pool.ParallelFor(0, 16, 4, [&](std::size_t ob, std::size_t oe, std::size_t) {
    for (std::size_t o = ob; o < oe; ++o) {
      // A nested loop on the same pool enqueues its chunks while every
      // worker may be busy with outer chunks: its caller runs them then.
      pool.ParallelFor(0, 64, 4,
                       [&](std::size_t ib, std::size_t ie, std::size_t) {
                         for (std::size_t i = ib; i < ie; ++i) {
                           ++visits[o * 64 + i];
                         }
                       });
    }
  });
  for (std::size_t i = 0; i < visits.size(); ++i) {
    ASSERT_EQ(visits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, DeepNestingWithAThrowingChunkVisitsAllAndStaysUsable) {
  // More outer chunks than workers; each issues a loop that issues another,
  // one chunk per index at every level. One innermost chunk throws after
  // its visit; the exception climbs through both nested loops to the outer
  // caller, and only after every chunk of every loop has run.
  ThreadPool pool(3);
  constexpr std::size_t kOuter = 12;
  constexpr std::size_t kInner = 4;
  std::vector<std::atomic<int>> visits(kOuter * kInner * kInner);
  const auto loop = [&pool](std::size_t n, const auto& visit) {
    pool.ParallelFor(0, n, n, [&](std::size_t b, std::size_t e, std::size_t) {
      for (std::size_t i = b; i < e; ++i) visit(i);
    });
  };
  EXPECT_THROW(
      loop(kOuter,
           [&](std::size_t o) {
             loop(kInner, [&](std::size_t a) {
               loop(kInner, [&](std::size_t b) {
                 const std::size_t index = (o * kInner + a) * kInner + b;
                 ++visits[index];
                 if (index == 137) throw std::runtime_error("inner");
               });
             });
           }),
      std::runtime_error);
  for (std::size_t i = 0; i < visits.size(); ++i) {
    ASSERT_EQ(visits[i].load(), 1) << "index " << i;
  }
  std::atomic<std::size_t> sum{0};
  loop(100, [&](std::size_t i) { sum += i; });
  EXPECT_EQ(sum.load(), 100u * 99u / 2);
}

TEST(ThreadPool, SingleChunkRunsOnCaller) {
  ThreadPool pool(2);
  const auto caller = std::this_thread::get_id();
  std::thread::id executed;
  pool.ParallelFor(0, 10, 1, [&](std::size_t, std::size_t, std::size_t slot) {
    executed = std::this_thread::get_id();
    EXPECT_EQ(slot, 0u);
  });
  EXPECT_EQ(executed, caller);
}

// ---------------------------------------------------------------------------
// Worker clones.

TEST(ParallelFaultSim, WorkerCloneMatchesParent) {
  auto nl = bistdse::testing::MakeSmallRandom(11, 200);
  FaultSimulator parent(nl);
  FaultSimulator clone = FaultSimulator::WorkerClone(parent);

  util::SplitMix64 rng(42);
  std::vector<PatternWord> words(nl.CoreInputs().size());
  for (auto& w : words) w = rng();
  parent.SetPatternBlock(words);

  for (const StuckAtFault& f : sim::CollapsedFaults(nl)) {
    ASSERT_EQ(clone.DetectWord(f), parent.DetectWord(f)) << ToString(nl, f);
    ASSERT_EQ(clone.FaultyResponse(f), parent.FaultyResponse(f));
  }
}

TEST(ParallelFaultSim, CloneSeesParentsLatestBlock) {
  auto nl = bistdse::testing::MakeSmallRandom(12, 150);
  FaultSimulator parent(nl);
  FaultSimulator clone = FaultSimulator::WorkerClone(parent);
  const auto faults = sim::CollapsedFaults(nl);

  util::SplitMix64 rng(43);
  for (int block = 0; block < 3; ++block) {
    std::vector<PatternWord> words(nl.CoreInputs().size());
    for (auto& w : words) w = rng();
    parent.SetPatternBlock(words);
    ASSERT_EQ(clone.DetectWord(faults[block]), parent.DetectWord(faults[block]));
  }
}

TEST(ParallelFaultSim, SetPatternBlockOnCloneThrows) {
  auto nl = bistdse::testing::MakeSmallRandom(13, 100);
  FaultSimulator parent(nl);
  FaultSimulator clone = FaultSimulator::WorkerClone(parent);
  std::vector<PatternWord> words(nl.CoreInputs().size(), 0);
  EXPECT_THROW(clone.SetPatternBlock(words), std::logic_error);
}

// ---------------------------------------------------------------------------
// Parallel sweeps are bit-identical to serial.

TEST(ParallelFaultSim, DetectWordsMatchSerialSweep) {
  auto nl = bistdse::testing::MakeSmallRandom(14, 300);
  const auto faults = sim::CollapsedFaults(nl);
  util::SplitMix64 rng(44);
  std::vector<PatternWord> words(nl.CoreInputs().size());
  for (auto& w : words) w = rng();

  FaultSimulator serial(nl);
  serial.SetPatternBlock(words);
  std::vector<PatternWord> expected(faults.size());
  for (std::size_t i = 0; i < faults.size(); ++i) {
    expected[i] = serial.DetectWord(faults[i]);
  }

  ThreadPool pool(4);
  for (std::size_t threads : {1u, 2u, 8u}) {
    ParallelFaultSimulator fsim(nl, threads, &pool);
    fsim.SetPatternBlock(words);
    std::vector<PatternWord> detect(faults.size(), 0);
    fsim.DetectWords(faults, detect);
    EXPECT_EQ(detect, expected) << threads << " threads";
  }
}

TEST(ParallelFaultSim, CountDetectedFaultsMatchesSerial) {
  auto nl = bistdse::testing::MakeSmallRandom(15, 250);
  const auto faults = sim::CollapsedFaults(nl);
  const auto patterns = RandomPatterns(130, nl.CoreInputs().size(), 45);

  const std::size_t expected = sim::CountDetectedFaults(nl, patterns, faults);
  EXPECT_GT(expected, 0u);
  for (std::size_t threads : {1u, 2u, 8u}) {
    EXPECT_EQ(sim::ParallelCountDetectedFaults(nl, patterns, faults, threads),
              expected)
        << threads << " threads";
  }
}

// ---------------------------------------------------------------------------
// Profile generation.

bist::ProfileGeneratorConfig SmallProfileConfig() {
  bist::ProfileGeneratorConfig config;
  config.prp_counts = {64, 256};
  config.coverage_targets_percent = {100.0, 95.0};
  config.fill_seeds = {11, 11};
  config.stumps.num_scan_chains = 8;
  config.stumps.max_chain_length = 16;
  return config;
}

void ExpectSameProfiles(const std::vector<bist::BistProfile>& a,
                        const std::vector<bist::BistProfile>& b,
                        const std::string& label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].profile_number, b[i].profile_number) << label;
    EXPECT_EQ(a[i].num_random_patterns, b[i].num_random_patterns) << label;
    EXPECT_EQ(a[i].num_deterministic_patterns, b[i].num_deterministic_patterns)
        << label << " profile " << i;
    EXPECT_EQ(a[i].fault_coverage_percent, b[i].fault_coverage_percent)
        << label << " profile " << i;
    EXPECT_EQ(a[i].runtime_ms, b[i].runtime_ms) << label << " profile " << i;
    EXPECT_EQ(a[i].data_bytes, b[i].data_bytes) << label << " profile " << i;
    EXPECT_EQ(a[i].care_bits, b[i].care_bits) << label << " profile " << i;
  }
}

/// Table I's four variants per PRP count over short random phases, so that
/// both maximum-coverage variants of the first PRP count run PODEM.
bist::ProfileGeneratorConfig TopUpProfileConfig() {
  bist::ProfileGeneratorConfig config = SmallProfileConfig();
  config.prp_counts = {32, 128};
  config.coverage_targets_percent = {100.0, 100.0, 98.0, 95.0};
  config.fill_seeds = {11, 23, 11, 11};
  return config;
}

TEST(ParallelProfileGeneration, TablesAreIdenticalAcrossThreadCounts) {
  auto nl = bistdse::testing::MakeSmallRandom(16, 300);
  for (const auto& matrix : {SmallProfileConfig(), TopUpProfileConfig()}) {
    const std::string name =
        std::to_string(matrix.coverage_targets_percent.size()) + " variants";
    auto serial_config = matrix;
    serial_config.threads = 1;
    bist::ProfileGenerator serial(nl, serial_config);
    const auto expected = serial.GenerateAll();
    const auto expected_one = serial.GenerateOne(
        matrix.prp_counts[0], 100.0, matrix.fill_seeds.back());
    ASSERT_GT(expected_one.profile.num_deterministic_patterns, 0u) << name;
    if (matrix.coverage_targets_percent.size() == 4) {
      // With threads != 1 two top-ups of one PRP count run at once.
      EXPECT_GT(expected[0].num_deterministic_patterns, 0u);
      EXPECT_GT(expected[1].num_deterministic_patterns, 0u);
    }

    for (std::size_t threads : {2u, 8u, 0u}) {
      const std::string label = name + ", threads=" + std::to_string(threads);
      auto config = matrix;
      config.threads = threads;
      bist::ProfileGenerator generator(nl, config);
      const auto profiles = generator.GenerateAll();
      ExpectSameProfiles(expected, profiles, label);
      EXPECT_EQ(bist::FormatProfileTable(expected),
                bist::FormatProfileTable(profiles))
          << label;
      EXPECT_EQ(serial.Stats().random_detected_at_max_prps,
                generator.Stats().random_detected_at_max_prps)
          << label;
      EXPECT_EQ(serial.Stats().untestable, generator.Stats().untestable)
          << label;
      EXPECT_EQ(serial.Stats().aborted, generator.Stats().aborted) << label;

      const auto one = generator.GenerateOne(matrix.prp_counts[0], 100.0,
                                             matrix.fill_seeds.back());
      ExpectSameProfiles({expected_one.profile}, {one.profile}, label);
      EXPECT_EQ(bist::HashEncodedPatterns(expected_one.encoded_patterns),
                bist::HashEncodedPatterns(one.encoded_patterns))
          << label;
    }
  }

  // Every variant throws, naming its own scaled size; each thread count
  // rethrows the lowest variant's exception, as the serial loop does.
  auto overflow = TopUpProfileConfig();
  overflow.byte_scale = 1e300;
  std::string serial_what;
  for (std::size_t threads : {1u, 2u, 8u, 0u}) {
    overflow.threads = threads;
    bist::ProfileGenerator generator(nl, overflow);
    try {
      generator.GenerateAll();
      ADD_FAILURE() << "threads=" << threads << ": no exception";
    } catch (const std::invalid_argument& e) {
      if (threads == 1) serial_what = e.what();
      EXPECT_EQ(e.what(), serial_what) << "threads=" << threads;
    }
  }
  EXPECT_NE(serial_what.find("byte_scale"), std::string::npos) << serial_what;
  // The last variant's message differs, so the order of the rethrow shows.
  bist::ProfileGenerator last(nl, overflow);
  try {
    last.GenerateOne(overflow.prp_counts.back(),
                     overflow.coverage_targets_percent.back(),
                     overflow.fill_seeds.back());
    ADD_FAILURE() << "last variant: no exception";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(e.what(), serial_what);
  }
}

TEST(ParallelProfileGeneration, GenerateOneReusesCachedRandomPhase) {
  auto nl = bistdse::testing::MakeSmallRandom(17, 250);

  // Reference: a dedicated generator whose random phase runs to exactly 64.
  auto single = SmallProfileConfig();
  single.threads = 1;
  single.prp_counts = {64};
  single.coverage_targets_percent = {95.0};
  single.fill_seeds = {23};
  bist::ProfileGenerator reference(nl, single);
  const auto expected = reference.GenerateAll();

  // The parent caches a longer phase (256) and must slice it at 64 without
  // re-running it — bit-identical to the dedicated run.
  auto parent_config = SmallProfileConfig();
  parent_config.threads = 2;
  bist::ProfileGenerator parent(nl, parent_config);
  parent.GenerateAll();  // fills the first_detect_ cache
  const auto one = parent.GenerateOne(64, 95.0, 23);

  ExpectSameProfiles(expected, {one.profile}, "GenerateOne");
  EXPECT_EQ(one.profile.num_deterministic_patterns,
            one.encoded_patterns.size());
}

TEST(ParallelProfileGeneration, GenerateOneBeyondCachedMaxStillWorks) {
  auto nl = bistdse::testing::MakeSmallRandom(18, 200);
  auto config = SmallProfileConfig();
  config.threads = 1;
  bist::ProfileGenerator generator(nl, config);
  // 512 exceeds the configured maximum of 256: the fallback path runs a
  // fresh, longer random phase.
  const auto one = generator.GenerateOne(512, 95.0, 7);
  EXPECT_EQ(one.profile.num_random_patterns, 512u);
  EXPECT_GT(one.profile.fault_coverage_percent, 0.0);
}

// ---------------------------------------------------------------------------
// Fault dictionary and diagnosis evaluation.

TEST(ParallelFaultDictionary, IdenticalAcrossThreadCounts) {
  auto nl = bistdse::testing::MakeSmallRandom(19, 200);
  bist::StumpsConfig config;
  config.num_scan_chains = 8;
  config.max_chain_length = 16;
  config.signature_window = 16;
  auto faults = sim::CollapsedFaults(nl);
  faults.resize(std::min<std::size_t>(faults.size(), 120));

  const bist::FaultDictionary serial(nl, config, 96, {}, faults, 1);
  for (std::size_t threads : {2u, 8u}) {
    const bist::FaultDictionary parallel(nl, config, 96, {}, faults, threads);
    ASSERT_EQ(parallel.FaultCount(), serial.FaultCount());
    ASSERT_EQ(parallel.WindowCount(), serial.WindowCount());
    for (std::size_t f = 0; f < faults.size(); ++f) {
      const auto a = serial.WindowsOf(f);
      const auto b = parallel.WindowsOf(f);
      ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
          << "fault " << f << " threads " << threads;
    }
    // A full diagnosis query over the dictionaries must rank identically.
    std::vector<bist::FailDatum> fail_data = {{1, 0xDEAD, 0}, {3, 0xBEEF, 0}};
    const auto ranked_a = serial.Diagnose(fail_data, 10);
    const auto ranked_b = parallel.Diagnose(fail_data, 10);
    ASSERT_EQ(ranked_a.size(), ranked_b.size());
    for (std::size_t i = 0; i < ranked_a.size(); ++i) {
      EXPECT_EQ(ranked_a[i].fault, ranked_b[i].fault);
      EXPECT_EQ(ranked_a[i].score, ranked_b[i].score);
    }
  }
}

TEST(ParallelDiagnosisEval, IdenticalAcrossThreadCounts) {
  auto nl = bistdse::testing::MakeSmallRandom(20, 200);
  bist::StumpsConfig config;
  config.num_scan_chains = 8;
  config.max_chain_length = 16;
  config.signature_window = 16;

  bist::DiagnosisEvalOptions options;
  options.num_random_patterns = 64;
  options.max_samples = 12;
  options.sample_stride = 17;

  options.threads = 1;
  const auto serial = bist::EvaluateDiagnosisAccuracy(nl, config, options);
  EXPECT_GT(serial.injected + serial.escaped, 0u);
  for (std::size_t threads : {2u, 8u}) {
    options.threads = threads;
    const auto parallel = bist::EvaluateDiagnosisAccuracy(nl, config, options);
    EXPECT_EQ(parallel.injected, serial.injected) << threads;
    EXPECT_EQ(parallel.escaped, serial.escaped) << threads;
    EXPECT_EQ(parallel.top1, serial.top1) << threads;
    EXPECT_EQ(parallel.topk, serial.topk) << threads;
    EXPECT_EQ(parallel.mean_rank, serial.mean_rank) << threads;
  }
}

}  // namespace
}  // namespace bistdse
