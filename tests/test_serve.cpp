// Diagnosis server end-to-end:
//  - wire codecs round-trip queries and rankings bit-exactly and reject
//    malformed buffers,
//  - the full upload -> DiagnoseBatch -> reply path over the simulated bus
//    is bit-identical to calling DiagnoseBatch directly, for every thread
//    count and under injected frame loss / corruption / reordering,
//  - admission is bounded with a per-ECU share,
//  - dictionary hot-reload drains in-flight requests against the old
//    generation with zero drops and rejects wrong-CUT artifacts,
//  - upload failures are attributable from the per-transfer counters,
//  - uploads naming windows past the dictionary are served in bounds.
// The TSan leg runs this suite: ConcurrentReloadWhileServing races Reload()
// against the serving loop.
#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <cstring>
#include <limits>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "serve/server.hpp"
#include "serve/versioned_store.hpp"
#include "serve/wire.hpp"
#include "test_helpers.hpp"
#include "trace_count.hpp"

namespace bistdse::serve {
namespace {

bist::StumpsConfig ServeStumpsConfig() {
  bist::StumpsConfig config;
  config.signature_window = 16;
  config.prpg_seed = 0x51;
  return config;
}

class ServeTest : public ::testing::Test {
 protected:
  ServeTest()
      : netlist_(bistdse::testing::MakeSmallRandom(71, 220)),
        faults_(sim::CollapsedFaults(netlist_)),
        // One artifact per test: ctest runs the tests of this suite in
        // parallel, and rewriting a file another test has mapped would
        // fault that test's reads.
        path_(::testing::TempDir() + "serve_shard_" +
              ::testing::UnitTest::GetInstance()->current_test_info()->name() +
              ".fdict") {
    bist::FaultDictionary dictionary(netlist_, ServeStumpsConfig(), kPatterns,
                                     {}, faults_);
    dictionary.Save(path_);
    bist::StumpsSession session(netlist_, ServeStumpsConfig());
    for (std::size_t fi = 0; fi < faults_.size(); fi += 67) {
      auto result = session.Run(kPatterns, {}, faults_[fi]);
      if (result.fail_data.empty()) continue;
      queries_.push_back({ShardKey(queries_.size() % 2),
                          std::move(result.fail_data)});
    }
  }

  ~ServeTest() override { std::remove(path_.c_str()); }

  static bist::DictShardKey ShardKey(std::size_t i) {
    return {"ecu-" + std::to_string(i), "p1"};
  }

  /// A fresh two-shard store over the saved artifact (each server and each
  /// reload generation owns its own copy).
  bist::DictionaryStore MakeStore() const {
    bist::DictionaryStore store;
    store.AddFromFile(ShardKey(0), path_, /*mapped=*/false);
    store.AddFromFile(ShardKey(1), path_, /*mapped=*/true);
    return store;
  }

  /// The bit-identity reference: direct per-query diagnosis, no bus.
  std::vector<std::vector<bist::DiagnosisCandidate>> Reference(
      std::size_t top_k) const {
    const bist::DictionaryStore store = MakeStore();
    std::vector<std::vector<bist::DiagnosisCandidate>> out;
    for (const bist::DictQuery& q : queries_) {
      out.push_back(store.Find(q.shard)->Diagnose(q.fail_data, top_k));
    }
    return out;
  }

  static void ExpectRankingEq(
      const std::vector<bist::DiagnosisCandidate>& got,
      const std::vector<bist::DiagnosisCandidate>& want,
      const std::string& where) {
    ASSERT_EQ(got.size(), want.size()) << where;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].fault, want[i].fault) << where << " rank " << i;
      // Bit equality, not EXPECT_DOUBLE_EQ: the wire carries the exact
      // IEEE-754 pattern of the score.
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i].score),
                std::bit_cast<std::uint64_t>(want[i].score))
          << where << " rank " << i;
    }
  }

  static constexpr std::uint64_t kPatterns = 256;
  netlist::Netlist netlist_;
  std::vector<sim::StuckAtFault> faults_;
  std::string path_;
  std::vector<bist::DictQuery> queries_;
};

TEST_F(ServeTest, WireQueryRoundTripIsExact) {
  ASSERT_GE(queries_.size(), 2u);
  for (const bist::DictQuery& query : queries_) {
    const auto bytes = wire::EncodeQuery(query);
    const bist::DictQuery back = wire::DecodeQuery(bytes);
    EXPECT_EQ(back.shard, query.shard);
    ASSERT_EQ(back.fail_data.size(), query.fail_data.size());
    for (std::size_t i = 0; i < back.fail_data.size(); ++i) {
      EXPECT_EQ(back.fail_data[i].window_index,
                query.fail_data[i].window_index);
      EXPECT_EQ(back.fail_data[i].observed_signature,
                query.fail_data[i].observed_signature);
      EXPECT_EQ(back.fail_data[i].expected_signature,
                query.fail_data[i].expected_signature);
    }
  }
}

TEST_F(ServeTest, WireRankingRoundTripIsBitExact) {
  const auto reference = Reference(5);
  for (const auto& ranking : reference) {
    const auto bytes = wire::EncodeRanking(ranking);
    ExpectRankingEq(wire::DecodeRanking(bytes), ranking, "round trip");
  }
}

TEST_F(ServeTest, WireRejectsMalformedBuffers) {
  auto bytes = wire::EncodeQuery(queries_.front());
  // Truncation.
  EXPECT_THROW(wire::DecodeQuery({bytes.data(), bytes.size() - 3}),
               std::runtime_error);
  EXPECT_THROW(wire::DecodeQuery({bytes.data(), std::size_t{4}}),
               std::runtime_error);
  // Bit flip anywhere fails the checksum.
  bytes[bytes.size() / 2] ^= 0x40;
  EXPECT_THROW(wire::DecodeQuery(bytes), std::runtime_error);
  bytes[bytes.size() / 2] ^= 0x40;
  // A sealed ranking is not a query (magic mismatch).
  const auto ranking_bytes = wire::EncodeRanking({});
  EXPECT_THROW(wire::DecodeQuery(ranking_bytes), std::runtime_error);
  EXPECT_THROW(wire::DecodeRanking(bytes), std::runtime_error);

  // A correctly sealed payload whose element count overstates the bytes
  // that follow is truncated; no allocation is sized from the count.
  const auto reseal = [](std::vector<std::uint8_t> buffer) {
    const std::size_t body = buffer.size() - sizeof(std::uint64_t);
    std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a seal over the body
    for (std::size_t i = 0; i < body; ++i) {
      h = (h ^ buffer[i]) * 0x100000001b3ULL;
    }
    std::memcpy(buffer.data() + body, &h, sizeof h);
    return buffer;
  };
  const auto reseal_with_huge_count = [&](std::vector<std::uint8_t> buffer,
                                          std::size_t count_offset) {
    const std::uint32_t count = 0xFFFFFFFFu;
    std::memcpy(buffer.data() + count_offset, &count, sizeof count);
    return reseal(std::move(buffer));
  };
  const auto error_of = [](const auto& decode) -> std::string {
    try {
      decode();
    } catch (const std::runtime_error& e) {
      return e.what();
    }
    return "no exception";
  };
  // Query layout: magic, two length-prefixed strings, then the count.
  const auto& shard = queries_.front().shard;
  const auto forged_query = reseal_with_huge_count(
      bytes, 4 + (4 + shard.ecu.size()) + (4 + shard.profile.size()));
  EXPECT_EQ(error_of([&] { wire::DecodeQuery(forged_query); }),
            "wire query: truncated payload");
  // Ranking layout: magic, then the count.
  const bist::DiagnosisCandidate candidate{};
  const auto forged_ranking = reseal_with_huge_count(
      wire::EncodeRanking(std::span(&candidate, 1)), 4);
  EXPECT_EQ(error_of([&] { wire::DecodeRanking(forged_ranking); }),
            "wire ranking: truncated payload");

  // Bytes between the last element and the seal: the decoders accept only
  // what the encoders emit.
  const auto reseal_with_tail = [&](std::vector<std::uint8_t> buffer) {
    const std::uint8_t tail[] = {0xde, 0xad, 0xbe, 0xef};
    buffer.insert(buffer.end() - sizeof(std::uint64_t), std::begin(tail),
                  std::end(tail));
    return reseal(std::move(buffer));
  };
  ASSERT_FALSE(queries_.front().fail_data.empty());
  const auto long_query = reseal_with_tail(bytes);
  EXPECT_EQ(error_of([&] { wire::DecodeQuery(long_query); }),
            "wire query: trailing bytes");
  const auto long_ranking =
      reseal_with_tail(wire::EncodeRanking(std::span(&candidate, 1)));
  EXPECT_EQ(error_of([&] { wire::DecodeRanking(long_ranking); }),
            "wire ranking: trailing bytes");

  // A polarity byte other than 0 or 1. Ranking layout: magic, count, then
  // per candidate the node (4 bytes), the fanin index (1) and the polarity.
  auto bad_polarity = wire::EncodeRanking(std::span(&candidate, 1));
  bad_polarity[4 + 4 + 4 + 1] = 7;
  bad_polarity = reseal(std::move(bad_polarity));
  EXPECT_EQ(error_of([&] { wire::DecodeRanking(bad_polarity); }),
            "wire ranking: bad polarity");
}

TEST_F(ServeTest, ServedRankingsBitIdenticalAcrossThreadsAndLoss) {
  ASSERT_GE(queries_.size(), 4u);
  const auto reference = Reference(5);

  struct Schedule {
    const char* name;
    double drop, corrupt, reorder;
  };
  const Schedule schedules[] = {{"clean", 0.0, 0.0, 0.0},
                                {"loss1", 0.01, 0.0, 0.0},
                                {"harsh", 0.05, 0.02, 0.02}};
  for (const Schedule& schedule : schedules) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                      std::size_t{0}}) {
      DiagnosisServerConfig config;
      config.threads = threads;
      config.faults.drop_rate = schedule.drop;
      config.faults.corrupt_rate = schedule.corrupt;
      config.faults.reorder_rate = schedule.reorder;
      config.faults.seed = 99;
      DiagnosisServer server(MakeStore(), config);
      for (std::size_t q = 0; q < queries_.size(); ++q) {
        server.Submit(queries_[q], 5.0 * static_cast<double>(q));
      }
      server.Run();
      ASSERT_TRUE(server.AllDone()) << schedule.name;
      const ServerStats& stats = server.Stats();
      EXPECT_EQ(stats.answered, queries_.size()) << schedule.name;
      EXPECT_EQ(stats.rejected_busy, 0u) << schedule.name;
      for (std::size_t q = 0; q < queries_.size(); ++q) {
        const RequestOutcome& outcome = server.Outcome(q);
        ASSERT_EQ(outcome.status, RequestStatus::Answered)
            << schedule.name << " threads " << threads << " query " << q;
        ExpectRankingEq(outcome.ranking, reference[q],
                        std::string(schedule.name) + " threads " +
                            std::to_string(threads) + " query " +
                            std::to_string(q));
      }
      if (schedule.drop > 0.0) {
        // The injector had to be ridden out by retransmissions somewhere.
        std::uint64_t retransmissions = 0;
        for (std::size_t q = 0; q < queries_.size(); ++q) {
          retransmissions += server.Outcome(q).upload.retransmissions +
                             server.Outcome(q).response.retransmissions;
        }
        EXPECT_GT(retransmissions, 0u) << schedule.name;
      }
    }
  }
}

TEST_F(ServeTest, AdmissionIsBoundedWithPerEcuShare) {
  ASSERT_GE(queries_.size(), 4u);
  DiagnosisServerConfig config;
  config.threads = 1;
  config.max_inflight = 2;  // Two ECUs -> per-ECU share of 1.
  DiagnosisServer server(MakeStore(), config);
  // A burst far beyond the bound, all released together: ecu-0 floods,
  // ecu-1 asks once.
  const std::size_t flood = 6;
  for (std::size_t i = 0; i < flood; ++i) {
    bist::DictQuery query = queries_[0];
    query.shard = ShardKey(0);
    server.Submit(std::move(query), 0.0);
  }
  bist::DictQuery other = queries_[1];
  other.shard = ShardKey(1);
  const std::uint64_t other_id = server.Submit(std::move(other), 0.0);
  server.Run();
  ASSERT_TRUE(server.AllDone());

  const ServerStats& stats = server.Stats();
  EXPECT_LE(stats.max_inflight_observed, config.max_inflight);
  // The flooding ECU could not take the whole bound: its share is 1, so
  // exactly one of its burst is admitted and the rest bounce.
  EXPECT_EQ(stats.rejected_busy, flood - 1);
  EXPECT_EQ(stats.answered, 2u);
  // The quiet ECU's request rode its reserved share.
  EXPECT_EQ(server.Outcome(other_id).status, RequestStatus::Answered);
}

TEST_F(ServeTest, HotReloadDrainsInFlightWithZeroDrops) {
  ASSERT_GE(queries_.size(), 4u);
  const auto reference = Reference(5);
  DiagnosisServerConfig config;
  config.threads = 1;
  config.service_time_ms = 4.0;  // Keep a batch in flight across the reload.
  DiagnosisServer server(MakeStore(), config);
  for (std::size_t q = 0; q < queries_.size(); ++q) {
    server.Submit(queries_[q], 3.0 * static_cast<double>(q));
  }

  // Serve until roughly half the fleet is answered, then roll over.
  while (server.Stats().answered < queries_.size() / 2) {
    ASSERT_LT(server.NowMs(), 1e7);
    server.Run(server.NowMs() + 10.0);
  }
  EXPECT_EQ(server.Store().Version(), 0u);
  const std::uint32_t version = server.Store().Reload(MakeStore());
  EXPECT_EQ(version, 1u);
  server.Run();
  ASSERT_TRUE(server.AllDone());

  const ServerStats& stats = server.Stats();
  EXPECT_EQ(stats.answered, queries_.size());  // Zero dropped requests.
  EXPECT_EQ(stats.upload_failures + stats.response_failures, 0u);
  std::uint32_t min_gen = 99, max_gen = 0;
  for (std::size_t q = 0; q < queries_.size(); ++q) {
    const RequestOutcome& outcome = server.Outcome(q);
    ASSERT_EQ(outcome.status, RequestStatus::Answered) << "query " << q;
    min_gen = std::min(min_gen, outcome.generation);
    max_gen = std::max(max_gen, outcome.generation);
    // Both generations serve the same artifact: rankings stay exact.
    ExpectRankingEq(outcome.ranking, reference[q],
                    "query " + std::to_string(q));
  }
  EXPECT_EQ(min_gen, 0u);  // Some requests drained against the old epoch.
  EXPECT_EQ(max_gen, 1u);  // Later ones were served by the new one.
  EXPECT_TRUE(server.Store().PreviousDrained());
}

TEST_F(ServeTest, WrongCutReloadIsRejectedWithoutDisruption) {
  DiagnosisServerConfig config;
  config.threads = 1;
  DiagnosisServer server(MakeStore(), config);
  server.Submit(queries_[0], 0.0);

  // An artifact for a different CUT under the same shard keys.
  const auto other_netlist = bistdse::testing::MakeSmallRandom(72, 220);
  bist::FaultDictionary other(other_netlist, ServeStumpsConfig(), kPatterns,
                              {}, sim::CollapsedFaults(other_netlist));
  bist::DictionaryStore wrong;
  wrong.Add(ShardKey(0), std::move(other));
  EXPECT_THROW(server.Store().Reload(std::move(wrong)),
               std::invalid_argument);
  EXPECT_EQ(server.Store().Version(), 0u);
  EXPECT_EQ(server.Store().ReloadRejects(), 1u);

  // The serving generation is untouched: the request still answers.
  server.Run();
  EXPECT_EQ(server.Stats().answered, 1u);
  ExpectRankingEq(server.Outcome(0).ranking, Reference(5)[0], "post-reject");
}

TEST_F(ServeTest, UploadFailuresAreAttributable) {
  // Heavy loss with a tiny retry budget: uploads must exhaust retries.
  DiagnosisServerConfig config;
  config.threads = 1;
  config.faults.drop_rate = 0.9;
  config.faults.seed = 7;
  config.transport.max_retries = 2;
  net::EventTrace trace;
  DiagnosisServer server(MakeStore(), config, &trace);
  server.Submit(queries_[0], 0.0);
  server.Run();
  ASSERT_TRUE(server.AllDone());

  const RequestOutcome& outcome = server.Outcome(0);
  ASSERT_EQ(outcome.status, RequestStatus::UploadFailed);
  EXPECT_EQ(server.Stats().upload_failures, 1u);
  EXPECT_GT(outcome.upload.dropped, 0u);
  EXPECT_GT(outcome.upload.retransmissions, 0u);
  // The failure reason carries the attribution counters into the trace.
  bool attributed = false;
  for (const net::TraceEvent& event : trace.Events()) {
    if (event.kind == net::TraceEventKind::TransferFailed &&
        event.note.find("retries=") != std::string::npos) {
      attributed = true;
    }
  }
  EXPECT_TRUE(attributed);
}

TEST_F(ServeTest, UploadedWindowsPastTheDictionaryAreServedInBounds) {
  // The wire passes any 32-bit window index through. Indices at and past
  // the dictionary's window count (and past its 64-bit bitmask rows) are
  // failing windows no candidate predicts; the served ranking equals the
  // direct one.
  ASSERT_GE(queries_.size(), 2u);
  const std::uint32_t windows =
      MakeStore().Find(ShardKey(0))->WindowCount();
  std::vector<bist::DictQuery> hostile;
  for (const std::uint32_t w :
       {windows, 64u, std::numeric_limits<std::uint32_t>::max()}) {
    for (std::size_t q = 0; q < 2; ++q) {
      bist::DictQuery query = queries_[q];
      query.fail_data.push_back({w, 0xfeed, 0});
      hostile.push_back(std::move(query));
    }
  }
  hostile.push_back({ShardKey(0), {{64, 1, 0}, {64, 2, 0}}});

  const bist::DictionaryStore direct = MakeStore();
  DiagnosisServerConfig config;
  config.threads = 1;
  DiagnosisServer server(MakeStore(), config);
  for (std::size_t q = 0; q < hostile.size(); ++q) {
    server.Submit(hostile[q], 5.0 * static_cast<double>(q));
  }
  server.Run();
  ASSERT_TRUE(server.AllDone());
  for (std::size_t q = 0; q < hostile.size(); ++q) {
    const RequestOutcome& outcome = server.Outcome(q);
    ASSERT_EQ(outcome.status, RequestStatus::Answered) << "query " << q;
    const auto want = direct.Find(hostile[q].shard)
                          ->Diagnose(hostile[q].fail_data, 5);
    ASSERT_FALSE(want.empty());
    ExpectRankingEq(outcome.ranking, want, "query " + std::to_string(q));
  }
  // Nothing predicts the last upload's only window: every score is 0.
  for (const auto& c : server.Outcome(hostile.size() - 1).ranking) {
    EXPECT_EQ(c.score, 0.0);
  }
}

TEST_F(ServeTest, TransferTimeoutIsCounted) {
  // A deadline far below the frames the payload needs: no loss required.
  DiagnosisServerConfig config;
  config.threads = 1;
  config.transport.timeout_ms = 3.0;
  DiagnosisServer server(MakeStore(), config);
  server.Submit(queries_[0], 0.0);
  server.Run();
  ASSERT_TRUE(server.AllDone());
  const RequestOutcome& outcome = server.Outcome(0);
  ASSERT_EQ(outcome.status, RequestStatus::UploadFailed);
  EXPECT_EQ(outcome.upload.timeouts, 1u);
}

TEST_F(ServeTest, RequestLifecycleRidesTheTrace) {
  DiagnosisServerConfig config;
  config.threads = 1;
  net::EventTrace trace;
  DiagnosisServer server(MakeStore(), config, &trace);
  for (std::size_t q = 0; q < 2 && q < queries_.size(); ++q) {
    server.Submit(queries_[q], 0.0);
  }
  server.Run(40.0);
  server.Store().Reload(MakeStore());
  server.Run();
  ASSERT_TRUE(server.AllDone());

  EXPECT_GT(testing::CountKind(trace, net::TraceEventKind::RequestAdmitted),
            0u);
  EXPECT_GT(testing::CountKind(trace, net::TraceEventKind::BatchDispatched),
            0u);
  EXPECT_GT(testing::CountKind(trace, net::TraceEventKind::RequestAnswered),
            0u);
  EXPECT_EQ(testing::CountKind(trace, net::TraceEventKind::DictReload), 1u);
  // Completed transfers carry the attribution suffix.
  bool attributed = false;
  for (const net::TraceEvent& event : trace.Events()) {
    if (event.kind == net::TraceEventKind::TransferCompleted &&
        event.note.find("retries=") != std::string::npos) {
      attributed = true;
    }
  }
  EXPECT_TRUE(attributed);
}

TEST_F(ServeTest, ConcurrentReloadWhileServing) {
  ASSERT_GE(queries_.size(), 4u);
  const auto reference = Reference(5);
  DiagnosisServerConfig config;
  config.threads = 0;  // Shared-pool fan-out under the race, for TSan.
  DiagnosisServer server(MakeStore(), config);
  for (std::size_t q = 0; q < queries_.size(); ++q) {
    server.Submit(queries_[q], 2.0 * static_cast<double>(q));
  }

  // Rollovers from a second thread while the serving loop runs — the
  // signal/watcher-thread shape of a live server.
  std::thread reloader([&] {
    for (int i = 0; i < 3; ++i) {
      server.Store().Reload(MakeStore());
      std::this_thread::yield();
    }
  });
  server.Run();
  reloader.join();
  server.Run();  // Anything admitted while the reloader ran.

  ASSERT_TRUE(server.AllDone());
  EXPECT_EQ(server.Stats().answered, queries_.size());
  EXPECT_EQ(server.Store().Version(), 3u);
  for (std::size_t q = 0; q < queries_.size(); ++q) {
    ExpectRankingEq(server.Outcome(q).ranking, reference[q],
                    "query " + std::to_string(q));
  }
  EXPECT_TRUE(server.Store().PreviousDrained());
}

}  // namespace
}  // namespace bistdse::serve
