#include "net/campaign.hpp"

#include <cmath>

#include "util/rng.hpp"

namespace bistdse::net {

std::vector<FaultInjectorConfig> MakeCampaignSchedule(
    const CampaignScheduleSpec& spec) {
  util::SplitMix64 rng(spec.seed);
  std::vector<FaultInjectorConfig> schedule;
  schedule.reserve(spec.rounds + 1);

  FaultInjectorConfig baseline;
  baseline.seed = spec.seed;
  baseline.affect_functional = spec.affect_functional;
  schedule.push_back(baseline);

  for (std::size_t r = 0; r < spec.rounds; ++r) {
    FaultInjectorConfig round;
    round.drop_rate = spec.max_drop_rate * rng.UnitReal();
    round.corrupt_rate = spec.max_corrupt_rate * rng.UnitReal();
    round.reorder_rate = spec.max_reorder_rate * rng.UnitReal();
    round.affect_functional = spec.affect_functional;
    // Distinct per-round injector stream: the same frame sequence must not
    // see correlated fates across rounds.
    round.seed = spec.seed ^ (0x9e3779b97f4a7c15ULL * (r + 1));
    schedule.push_back(round);
  }
  return schedule;
}

CampaignRound JudgeExecution(SessionExecutionReport report,
                             const FaultInjectorConfig& faults,
                             bool zero_loss, double block_slack_ms,
                             std::uint32_t frames_per_block) {
  CampaignRound round;
  round.faults = faults;
  round.baseline = zero_loss;

  for (const SessionExecution& s : report.sessions) {
    if (!s.executed) continue;  // Rejected up front (no mirrored bandwidth).
    if (!s.completed) {
      round.completed = false;
      if (round.failure.empty()) round.failure = "incomplete: " + s.failure;
      continue;
    }
    // Invariant 1: the simulation never beats Eq. 1. Downloads start with
    // the carrier schedule, so the bound is exact; uploads begin mid-stream
    // after the BIST run and may land one slot period early.
    if (s.simulated_download_ms < s.analytical_download_ms - 1e-9) {
      round.q_bounded = false;
      if (round.failure.empty()) round.failure = "download beat Eq. 1";
    }
    if (zero_loss && s.analytical_download_ms > 0.0) {
      // q is a sustained-rate bound; every started flow-control block also
      // pays the FC round trip (grant + gateway hops + slot re-entry).
      const double blocks =
          std::ceil(static_cast<double>(s.plan.download_frames) /
                    static_cast<double>(frames_per_block));
      if (s.simulated_download_ms >
          1.05 * s.analytical_download_ms + block_slack_ms * blocks) {
        round.q_bounded = false;
        if (round.failure.empty()) {
          round.failure = "zero-loss download outside the 5 % band";
        }
      }
    }
    if (s.simulated_upload_ms < 0.95 * s.analytical_upload_ms - 1e-9) {
      round.q_bounded = false;
      if (round.failure.empty()) round.failure = "upload beat Eq. 1";
    }
    // Invariant 2: per-frame WCRT domination.
    if (!s.wcrt_dominated) {
      round.wcrt_dominated = false;
      if (round.failure.empty()) round.failure = "observed response > WCRT";
    }
    // Invariant 3: the certified (non-mirrored) schedule is unperturbed by
    // diagnosis traffic. A subset of invariant 2, reported separately: a
    // mirrored carrier missing its own bound is a diagnosis problem, a
    // functional slot missing it breaks the paper's core claim.
    for (const WcrtSample& w : s.wcrt) {
      if (!w.mirrored && w.observed_ms > w.analytical_ms + 1e-9) {
        round.non_intrusive = false;
        if (round.failure.empty()) {
          round.failure = "functional slot " + w.bus_name + " perturbed";
        }
      }
    }
  }
  round.report = std::move(report);
  return round;
}

CampaignReport RunAdversarialCampaign(
    const model::Specification& spec,
    const model::BistAugmentation& augmentation,
    const model::Implementation& impl, const SessionExecutorOptions& base,
    const CampaignScheduleSpec& schedule) {
  CampaignReport campaign;
  const auto rounds = MakeCampaignSchedule(schedule);
  const SessionExecutor executor(spec, augmentation, base);
  std::vector<SessionExecutionReport> reports =
      executor.ExecuteRounds(impl, rounds);
  for (std::size_t r = 0; r < rounds.size(); ++r) {
    CampaignRound round = JudgeExecution(
        std::move(reports[r]), rounds[r], r == 0,
        schedule.zero_loss_block_slack_ms, base.transport.block_size);
    campaign.all_completed &= round.completed;
    campaign.all_q_bounded &= round.q_bounded;
    campaign.all_wcrt_dominated &= round.wcrt_dominated;
    campaign.all_non_intrusive &= round.non_intrusive;
    campaign.total_frames_dropped += round.report.total_frames_dropped;
    campaign.total_frames_corrupted += round.report.total_frames_corrupted;
    campaign.total_retransmissions += round.report.total_retransmissions;
    campaign.rounds.push_back(std::move(round));
  }
  return campaign;
}

}  // namespace bistdse::net
