#include "bist/profile_generator.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <exception>
#include <stdexcept>
#include <string>

#include "bist/campaign_sources.hpp"
#include "bist/pattern_source.hpp"
#include "sim/pattern_set.hpp"
#include "sim/transition_fault.hpp"
#include "util/thread_pool.hpp"

namespace bistdse::bist {

using atpg::DeterministicTpgOptions;
using atpg::GenerateDeterministicPatterns;
using netlist::Netlist;
using sim::BitPattern;
using sim::PatternWord;
using sim::StuckAtFault;

std::uint64_t ScaledDataBytes(double bytes, std::string_view field) {
  // 2^64 is the first double above UINT64_MAX; the negated test also
  // rejects NaN.
  if (!(bytes >= 0.0 && bytes < 18446744073709551616.0)) {
    char buf[96];
    std::snprintf(buf, sizeof(buf),
                  ": scaled data size %g B is outside [0, 2^64-1]", bytes);
    throw std::invalid_argument(std::string(field) + buf);
  }
  return static_cast<std::uint64_t>(bytes);
}

std::string FormatProfileTable(const std::vector<BistProfile>& profiles) {
  bool has_tdf = false;
  for (const BistProfile& p : profiles) {
    has_tdf |= p.transition_coverage_percent > 0.0;
  }
  std::string out =
      has_tdf
          ? "profile |   #PRPs   |  c(b) [%] | tdf [%] |  l(b) [ms] |  s(b) "
            "[Bytes]\n"
            "--------+-----------+-----------+---------+------------+-------"
            "-------\n"
          : "profile |   #PRPs   |  c(b) [%] |  l(b) [ms] |  s(b) [Bytes]\n"
            "--------+-----------+-----------+------------+--------------\n";
  for (const BistProfile& p : profiles) {
    char buf[160];
    if (has_tdf) {
      std::snprintf(buf, sizeof(buf),
                    "%7u | %9llu | %9.2f | %7.2f | %10.2f | %13llu\n",
                    p.profile_number,
                    static_cast<unsigned long long>(p.num_random_patterns),
                    p.fault_coverage_percent, p.transition_coverage_percent,
                    p.runtime_ms,
                    static_cast<unsigned long long>(p.data_bytes));
    } else {
      std::snprintf(buf, sizeof(buf),
                    "%7u | %9llu | %9.2f | %10.2f | %13llu\n",
                    p.profile_number,
                    static_cast<unsigned long long>(p.num_random_patterns),
                    p.fault_coverage_percent, p.runtime_ms,
                    static_cast<unsigned long long>(p.data_bytes));
    }
    out += buf;
  }
  return out;
}

void ProfileGeneratorConfig::Validate() const {
  if (coverage_targets_percent.size() != fill_seeds.size())
    throw std::invalid_argument(
        "fill_seeds: one fill seed per coverage target required");
  if (prp_counts.empty())
    throw std::invalid_argument("prp_counts must not be empty");
  if (coverage_targets_percent.empty())
    throw std::invalid_argument("coverage_targets_percent must not be empty");
  for (std::size_t i = 1; i < prp_counts.size(); ++i) {
    if (prp_counts[i] <= prp_counts[i - 1])
      throw std::invalid_argument("prp_counts must be strictly ascending");
  }
  if (!std::isfinite(byte_scale) || byte_scale < 0.0)
    throw std::invalid_argument("byte_scale must be finite and >= 0 (got " +
                                std::to_string(byte_scale) + ")");
}

namespace {

/// The campaign configuration of a runner with `threads` sweep workers.
sim::CampaignConfig RunnerConfig(const ProfileGeneratorConfig& config,
                                 std::size_t threads) {
  return {.block_width = config.block_width,
          .threads = threads,
          .narrow_warmup_patterns = config.narrow_warmup_patterns,
          .structural_shortcuts = config.structural_shortcuts};
}

}  // namespace

ProfileGenerator::ProfileGenerator(const Netlist& netlist,
                                   ProfileGeneratorConfig config)
    : netlist_(netlist),
      config_(std::move(config)),
      runner_(netlist, RunnerConfig(config_, config_.threads)) {
  config_.Validate();
  faults_ = sim::CollapsedFaults(netlist_);
  stats_.total_collapsed_faults = faults_.size();
}

void ProfileGenerator::RunRandomPhase() {
  if (random_phase_done_) return;
  const std::uint64_t max_prps = config_.prp_counts.back();
  first_detect_.assign(faults_.size(), UINT64_MAX);

  // Drop campaign over the PRPG stream. The runner handles the narrow
  // warm-up head (drop-heavy start runs at W = 1, sparse survivor tail runs
  // wide — see docs/PERF.md) and the serial fault-order drop merge, so
  // first_detect_ is bit-identical for every width x thread combination.
  PrpgSource source(config_.stumps, netlist_.CoreInputs().size());
  sim::FirstDetectSink sink(first_detect_);
  const sim::CampaignStats stats = runner_.Run(source, sink,
                                               {.max_patterns = max_prps,
                                                .track = faults_,
                                                .drop_detected = true,
                                                .warmup = true});
  stats_.random_detected_at_max_prps =
      static_cast<std::size_t>(stats.dropped);
  random_phase_done_ = true;
}

ProfileGenerator::Survivors ProfileGenerator::SurvivorsAt(
    std::uint64_t prps) const {
  Survivors survivors;
  for (std::size_t i = 0; i < faults_.size(); ++i) {
    if (first_detect_[i] < prps) {
      ++survivors.random_detected;
    } else {
      survivors.undetected.push_back(faults_[i]);
    }
  }
  return survivors;
}

GeneratedProfile ProfileGenerator::GenerateOne(std::uint64_t prps,
                                               double target_percent,
                                               std::uint64_t fill_seed) {
  if (prps > config_.prp_counts.back()) {
    // The cached random phase stops at the configured maximum; a longer
    // session needs a fresh phase over the longer PRPG stream.
    ProfileGeneratorConfig config = config_;
    config.prp_counts = {prps};
    config.coverage_targets_percent = {target_percent};
    config.fill_seeds = {fill_seed};
    ProfileGenerator generator(netlist_, config);
    return generator.GenerateOne(prps, target_percent, fill_seed);
  }

  RunRandomPhase();
  const ReseedingEncoder encoder(
      static_cast<std::uint32_t>(netlist_.CoreInputs().size()));
  GeneratedProfile out;
  out.profile = GenerateVariant(prps, target_percent, fill_seed, 1,
                                SurvivorsAt(prps), encoder, runner_, stats_,
                                &out.encoded_patterns);
  return out;
}

std::vector<BistProfile> ProfileGenerator::GenerateAll() {
  RunRandomPhase();

  std::vector<Survivors> survivors;  // per PRP count
  for (std::uint64_t prps : config_.prp_counts) {
    survivors.push_back(SurvivorsAt(prps));
  }
  const ReseedingEncoder encoder(
      static_cast<std::uint32_t>(netlist_.CoreInputs().size()));

  // Variant v is a pure function of its PRP count, target, fill seed and
  // survivors, so the variants run as independent pool chunks. Each writes
  // its own profile and stats slot and sweeps its top-up on a serial runner
  // of its chunk; a chunk stops at its first exception. Chunks cover
  // ascending variant ranges, so the first error in index order is the
  // lowest variant's, whatever finished first.
  const std::size_t variants = config_.coverage_targets_percent.size();
  const std::size_t n = config_.prp_counts.size() * variants;
  std::vector<BistProfile> profiles(n);
  std::vector<ProfileGenerationStats> stats(n);
  std::vector<std::exception_ptr> errors(n);
  util::ThreadPool::Global().ParallelFor(
      0, n, config_.threads == 0 ? n : config_.threads,
      [&](std::size_t begin, std::size_t end, std::size_t /*slot*/) {
        sim::CampaignRunner runner(netlist_, RunnerConfig(config_, 1));
        for (std::size_t v = begin; v < end; ++v) {
          try {
            profiles[v] = GenerateVariant(
                config_.prp_counts[v / variants],
                config_.coverage_targets_percent[v % variants],
                config_.fill_seeds[v % variants],
                static_cast<std::uint32_t>(v + 1), survivors[v / variants],
                encoder, runner, stats[v], nullptr);
          } catch (...) {
            errors[v] = std::current_exception();
            return;
          }
        }
      });
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
  for (const ProfileGenerationStats& s : stats) {
    stats_.untestable = std::max(stats_.untestable, s.untestable);
    stats_.aborted = std::max(stats_.aborted, s.aborted);
  }
  return profiles;
}

namespace {

/// Per-pattern detection gains of the deterministic top-up stream: each
/// tracked fault contributes to the pattern that first detects it, and the
/// campaign stops once the running coverage reaches the target (at block
/// granularity — gains past the chosen prefix are never read).
class TopUpSink final : public sim::CampaignSink {
 public:
  TopUpSink(std::vector<std::size_t>& gain_per_pattern, std::size_t covered,
            std::size_t total, double target_percent)
      : gain_per_pattern_(gain_per_pattern),
        covered_(covered),
        total_(total),
        target_percent_(target_percent) {}

  bool OnBlock(sim::CampaignBlock& block) override {
    for (std::size_t i = 0; i < block.TrackedCount(); ++i) {
      const int first = block.TrackedFirstDetect(i);
      if (first >= 0) {
        ++gain_per_pattern_[static_cast<std::size_t>(block.BaseIndex()) +
                            static_cast<std::size_t>(first)];
        ++covered_;
      }
    }
    return 100.0 * static_cast<double>(covered_) /
               static_cast<double>(total_) <
           target_percent_;
  }

 private:
  std::vector<std::size_t>& gain_per_pattern_;
  std::size_t covered_;
  std::size_t total_;
  double target_percent_;
};

}  // namespace

BistProfile ProfileGenerator::GenerateVariant(
    std::uint64_t prps, double target_percent, std::uint64_t fill_seed,
    std::uint32_t number, const Survivors& survivors,
    const ReseedingEncoder& encoder, sim::CampaignRunner& runner,
    ProfileGenerationStats& stats,
    std::vector<EncodedPattern>* encoded_sink) const {
  const std::vector<StuckAtFault>& undetected = survivors.undetected;
  const std::size_t random_detected = survivors.random_detected;
  const std::size_t total = faults_.size();
  const std::size_t width = netlist_.CoreInputs().size();
  const bool already_met = 100.0 * static_cast<double>(random_detected) /
                               static_cast<double>(total) >=
                           target_percent;

  atpg::DeterministicTpgResult tpg;
  if (!already_met) {
    DeterministicTpgOptions opts;
    opts.seed = fill_seed * 1000003 + prps;
    opts.backtrack_limit = config_.podem_backtrack_limit;
    opts.reverse_compaction = true;
    tpg = GenerateDeterministicPatterns(netlist_, undetected, opts);
    stats.untestable = std::max(stats.untestable, tpg.untestable);
    stats.aborted = std::max(stats.aborted, tpg.aborted);
  }

  // Order of `tpg.patterns` is generation order; walk it with fault
  // dropping to find the shortest prefix reaching the target coverage. A
  // fault's gain lands on its first-detecting pattern, so the drop campaign
  // reproduces the per-pattern drop walk exactly.
  std::vector<std::size_t> gain_per_pattern(tpg.patterns.size(), 0);
  if (!already_met && !tpg.patterns.empty()) {
    sim::StoredPatternSource source(tpg.patterns);
    TopUpSink sink(gain_per_pattern, random_detected, total, target_percent);
    runner.Run(source, sink, {.track = undetected, .drop_detected = true});
  }
  std::size_t covered = random_detected;
  std::size_t prefix = 0;
  for (std::size_t p = 0; !already_met && p < tpg.patterns.size(); ++p) {
    covered += gain_per_pattern[p];
    prefix = p + 1;
    if (100.0 * static_cast<double>(covered) / static_cast<double>(total) >=
        target_percent) {
      break;
    }
  }

  // Recompute achieved coverage for the chosen prefix.
  std::size_t achieved = random_detected;
  for (std::size_t p = 0; p < prefix; ++p) achieved += gain_per_pattern[p];

  BistProfile prof;
  prof.profile_number = number;
  prof.num_random_patterns = prps;
  prof.num_deterministic_patterns = prefix;
  prof.fault_coverage_percent =
      100.0 * static_cast<double>(achieved) / static_cast<double>(total);
  prof.runtime_ms =
      config_.stumps.PatternTimeMs(prps + prefix) + kStateRestoreMs;

  std::uint64_t encoded_bytes = 0;
  std::uint64_t care = 0;
  for (std::size_t p = 0; p < prefix; ++p) {
    care += tpg.cubes[p].CareBitCount();
    if (auto enc = encoder.Encode(tpg.cubes[p])) {
      encoded_bytes += enc->StorageBytes();
      if (encoded_sink) encoded_sink->push_back(std::move(*enc));
    } else {
      // Unencodable cube (practically unreachable): store it verbatim.
      encoded_bytes += (width + 7) / 8;
    }
  }
  prof.care_bits = care;
  if (config_.measure_transition_coverage) {
    // Assemble the session's applied patterns (random prefix capped,
    // then the deterministic top-up) and measure LOC TDF coverage.
    std::vector<BitPattern> applied;
    const std::uint64_t random_take =
        std::min<std::uint64_t>(prps, config_.transition_pairs_cap);
    PatternSource source(config_.stumps, width);
    for (std::uint64_t i = 0; i < random_take; ++i) {
      applied.push_back(source.Next());
    }
    for (std::size_t p = 0; p < prefix; ++p) {
      applied.push_back(tpg.patterns[p]);
    }
    prof.transition_coverage_percent =
        100.0 * sim::MeasureLocTransitionCoverage(netlist_, applied);
  }
  const std::uint64_t response_bytes =
      StumpsSession(netlist_, config_.stumps)
          .ResponseDataBytes(prps + prefix);
  prof.data_bytes = ScaledDataBytes(
      static_cast<double>(encoded_bytes + response_bytes) * config_.byte_scale,
      "byte_scale");
  return prof;
}

}  // namespace bistdse::bist
