// Mixed-mode BIST profile generation — the pipeline that produced the
// paper's Table I, rebuilt: pseudo-random fault simulation with dropping,
// PODEM top-up for random-resistant faults, reseeding encoding, and the
// runtime/storage cost model.
#pragma once

#include <cstdint>
#include <vector>

#include "atpg/tpg.hpp"
#include "bist/profile.hpp"
#include "bist/stumps.hpp"
#include "netlist/netlist.hpp"
#include "sim/campaign.hpp"

namespace bistdse::bist {

struct ProfileGeneratorConfig {
  /// Pseudo-random pattern counts to profile (Table I column 2).
  std::vector<std::uint64_t> prp_counts = {500,   1000,  5000,   10000, 20000,
                                           50000, 100000, 200000, 500000};
  /// Coverage targets per PRP count. Values > achievable coverage mean
  /// "maximum": all generated deterministic patterns are kept. Table I has
  /// four variants per PRP count: two maximum-coverage runs (different fill
  /// seeds) and 98 % / 95 % targets.
  std::vector<double> coverage_targets_percent = {100.0, 100.0, 98.0, 95.0};
  /// Distinct random-fill seeds per variant (same length as targets).
  std::vector<std::uint64_t> fill_seeds = {11, 23, 11, 11};

  StumpsConfig stumps;
  std::uint32_t podem_backtrack_limit = 100;
  /// Multiplies reported data bytes; used to present numbers at the paper's
  /// CUT magnitude (371,900 collapsed faults) when profiling a scaled-down
  /// synthetic CUT. 1.0 = raw measurement. A scaled size above 2^64-1
  /// bytes throws std::invalid_argument naming byte_scale.
  double byte_scale = 1.0;
  /// Also measure launch-on-capture transition coverage per profile
  /// (extension; adds TDF fault simulation time). Measurement is capped at
  /// `transition_pairs_cap` pattern pairs — LOC coverage saturates early, so
  /// the cap biases long sessions only marginally.
  bool measure_transition_coverage = false;
  std::uint64_t transition_pairs_cap = 4096;
  /// Parallelism on the shared thread pool: the fault-simulation width of
  /// the random phase and of GenerateOne's top-up sweep, and how many
  /// GenerateAll variants run at once. 1 = serial, 0 = full pool width (one
  /// chunk per variant). Results are bit-identical for every value (see
  /// docs/PERF.md).
  std::size_t threads = 0;
  /// Simulation block width W of the random phase: W*64 patterns per sweep
  /// (W in {1, 2, 4, 8, 16}). Composes multiplicatively with `threads`;
  /// results are bit-identical for every width (see docs/PERF.md).
  std::size_t block_width = 4;
  /// FFR-collapse + dominator-cut detection shortcuts in the fault
  /// simulators (bit-identical results; off = ablation/validation).
  bool structural_shortcuts = true;
  /// Leading patterns of the random phase simulated at W = 1 regardless of
  /// `block_width`. The head of the phase drops faults so fast that wide
  /// blocks do more union-cone work than the drops they save; the sparse
  /// survivor tail is then swept W times fewer. 0 = wide from pattern 0.
  std::uint64_t narrow_warmup_patterns = 512;

  /// Throws std::invalid_argument naming the field unless the profile matrix
  /// is usable: one fill seed per coverage target, non-empty prp_counts and
  /// coverage_targets_percent, prp_counts strictly ascending, and byte_scale
  /// finite and >= 0. ProfileGenerator calls it on construction.
  void Validate() const;
};

struct ProfileGenerationStats {
  std::size_t total_collapsed_faults = 0;
  std::size_t random_detected_at_max_prps = 0;
  std::size_t untestable = 0;
  std::size_t aborted = 0;
};

/// A profile together with its deployable artifacts: the reseeding-encoded
/// deterministic patterns (the b^D payload) — what a session actually runs.
struct GeneratedProfile {
  BistProfile profile;
  std::vector<EncodedPattern> encoded_patterns;
};

class ProfileGenerator {
 public:
  ProfileGenerator(const netlist::Netlist& netlist,
                   ProfileGeneratorConfig config);

  /// Generates |prp_counts| x |coverage_targets| profiles, numbered 1..N in
  /// Table I order (all variants of a PRP count before the next count).
  /// After the random phase the variants run on the shared thread pool, at
  /// most `threads` at once; the profiles and Stats() are the same for every
  /// thread count. If variants throw, the lowest-numbered one's exception is
  /// rethrown.
  std::vector<BistProfile> GenerateAll();

  /// Generates one profile and keeps its encoded deterministic patterns,
  /// ready to run in a StumpsSession. Reuses the generator's cached random
  /// phase (first_detect_) whenever `prps` does not exceed the configured
  /// maximum, so repeated calls only pay for the deterministic top-up.
  GeneratedProfile GenerateOne(std::uint64_t prps, double target_percent,
                               std::uint64_t fill_seed);

  const ProfileGenerationStats& Stats() const { return stats_; }

 private:
  /// First-detecting pattern index per fault (UINT64_MAX = never), under the
  /// PRPG stream of config_.stumps: a drop campaign over the PRPG source
  /// with the runner's narrow warm-up and a FirstDetectSink.
  void RunRandomPhase();

  /// Faults surviving a random phase of length `prps` plus the count the
  /// phase already detected.
  struct Survivors {
    std::vector<sim::StuckAtFault> undetected;
    std::size_t random_detected = 0;
  };
  /// Requires RunRandomPhase().
  Survivors SurvivorsAt(std::uint64_t prps) const;

  /// One Table-I variant: PODEM top-up of the survivors, shortest prefix to
  /// `target_percent` (swept on `runner`), reseeding encoding, and the cost
  /// model. Folds the top-up's untestable/aborted counts into `stats` by max.
  /// Encoded patterns of the chosen prefix go to `encoded_sink` when
  /// non-null.
  BistProfile GenerateVariant(std::uint64_t prps, double target_percent,
                              std::uint64_t fill_seed, std::uint32_t number,
                              const Survivors& survivors,
                              const ReseedingEncoder& encoder,
                              sim::CampaignRunner& runner,
                              ProfileGenerationStats& stats,
                              std::vector<EncodedPattern>* encoded_sink) const;

  const netlist::Netlist& netlist_;
  ProfileGeneratorConfig config_;
  std::vector<sim::StuckAtFault> faults_;
  std::vector<std::uint64_t> first_detect_;  // aligned with faults_
  ProfileGenerationStats stats_;
  bool random_phase_done_ = false;
  /// The campaign kernel of the random phase and of GenerateOne's top-up
  /// sweeps: simulator state is cached per width and reused across them.
  sim::CampaignRunner runner_;
};

}  // namespace bistdse::bist
