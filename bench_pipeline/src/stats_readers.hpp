// Readers of the public stats structs the library already returns. Every
// field the benchmark consumes is read here, so README.md can list them and
// a refactor of the structs has one place to follow.
#pragma once

#include "common.hpp"
#include "dse/parallel.hpp"
#include "net/campaign.hpp"
#include "net/transport.hpp"

namespace bistdse::pipeline {

/// dse::ParallelResult and its DecoderStats / sat::SolverStats.
inline void ReadExploreStats(const dse::ParallelResult& r, Report& report) {
  const double evals = static_cast<double>(r.evaluations);
  report.PerFlow("dse.evals_per_s", r.Throughput());
  report.PerFlow("dse.cache_hit_ratio",
                 evals > 0 ? static_cast<double>(r.eval_cache_hits) / evals : 0);
  report.PerFlow("sat.decode_s", r.decoder_stats.decode_seconds);
  report.PerFlow("sat.propagations",
                 static_cast<double>(r.decoder_stats.solver.propagations));
  report.PerFlow("sat.conflicts",
                 static_cast<double>(r.decoder_stats.solver.conflicts));
}

/// Sums of net::TransferStats over one flow's transfers.
struct TransferTotals {
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;
  std::uint64_t retransmissions = 0;

  void Add(const net::TransferStats& s) {
    sent += s.frames_sent;
    delivered += s.delivered;
    dropped += s.dropped;
    retransmissions += s.retransmissions;
  }

  void Record(Report& report) const {
    report.PerFlow("net.frames_sent", static_cast<double>(sent));
    report.PerFlow("net.frames_dropped", static_cast<double>(dropped));
    report.PerFlow("net.retransmissions", static_cast<double>(retransmissions));
    report.PerFlow("net.delivery_ratio",
                   sent > 0 ? static_cast<double>(delivered) /
                                  static_cast<double>(sent)
                            : 0);
  }
};

/// net::CampaignReport: the download/upload TransferStats of every executed
/// session in every round.
inline void ReadCampaignStats(const net::CampaignReport& campaign,
                              Report& report) {
  TransferTotals totals;
  for (const net::CampaignRound& round : campaign.rounds) {
    for (const net::SessionExecution& s : round.report.sessions) {
      totals.Add(s.download);
      totals.Add(s.upload);
    }
  }
  totals.Record(report);
}

}  // namespace bistdse::pipeline
