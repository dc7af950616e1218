// DictionaryStore batch serving: DiagnoseBatch is bit-identical to serial
// per-query Diagnose for every thread count (the determinism contract of the
// serving layer; the TSan leg runs this suite to certify the fan-out is
// race-free).
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "bist/dictionary_store.hpp"
#include "test_helpers.hpp"

namespace bistdse::bist {
namespace {

StumpsConfig StoreConfig() {
  StumpsConfig config;
  config.signature_window = 16;
  config.prpg_seed = 0x51;
  return config;
}

class DictionaryStoreTest : public ::testing::Test {
 protected:
  DictionaryStoreTest()
      : netlist_(bistdse::testing::MakeSmallRandom(71, 220)),
        faults_(sim::CollapsedFaults(netlist_)),
        dictionary_(netlist_, StoreConfig(), kPatterns, {}, faults_) {
    // Queries: fail data of sampled injected faults, alternating between
    // two shard keys.
    StumpsSession session(netlist_, StoreConfig());
    for (std::size_t fi = 0; fi < faults_.size(); fi += 67) {
      auto result = session.Run(kPatterns, {}, faults_[fi]);
      if (result.fail_data.empty()) continue;
      queries_.push_back({ShardKey(queries_.size() % 2),
                          std::move(result.fail_data)});
    }
  }

  static DictShardKey ShardKey(std::size_t i) {
    return {"ecu-" + std::to_string(i), "p1"};
  }

  static constexpr std::uint64_t kPatterns = 256;
  netlist::Netlist netlist_;
  std::vector<sim::StuckAtFault> faults_;
  FaultDictionary dictionary_;
  std::vector<DictQuery> queries_;
};

TEST_F(DictionaryStoreTest, BatchIsBitIdenticalForEveryThreadCount) {
  const std::string path = ::testing::TempDir() + "store_shard.fdict";
  dictionary_.Save(path);

  // Shard 0 owned, shard 1 mmap-backed: both paths serve under the fan-out.
  DictionaryStore store;
  store.Add(ShardKey(0), FaultDictionary::Load(path));
  store.AddFromFile(ShardKey(1), path, /*mapped=*/true);
  ASSERT_EQ(store.ShardCount(), 2u);
  ASSERT_GE(queries_.size(), 4u);

  // Serial reference: per-query Diagnose in order.
  std::vector<std::vector<DiagnosisCandidate>> reference;
  for (const DictQuery& q : queries_) {
    reference.push_back(store.Find(q.shard)->Diagnose(q.fail_data, 5));
  }

  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{3}, std::size_t{0}}) {
    const auto batch = store.DiagnoseBatch(queries_, 5, threads);
    ASSERT_EQ(batch.size(), reference.size()) << "threads " << threads;
    for (std::size_t q = 0; q < batch.size(); ++q) {
      ASSERT_EQ(batch[q].size(), reference[q].size())
          << "threads " << threads << " query " << q;
      for (std::size_t i = 0; i < batch[q].size(); ++i) {
        EXPECT_EQ(batch[q][i].fault, reference[q][i].fault)
            << "threads " << threads << " query " << q << " rank " << i;
        EXPECT_EQ(batch[q][i].score, reference[q][i].score)
            << "threads " << threads << " query " << q << " rank " << i;
      }
    }
  }
  std::remove(path.c_str());
}

TEST_F(DictionaryStoreTest, UnknownShardYieldsEmptyRanking) {
  DictionaryStore store;
  store.Add(ShardKey(0), std::move(dictionary_));
  EXPECT_EQ(store.Find(ShardKey(7)), nullptr);

  std::vector<DictQuery> queries = {{ShardKey(7), queries_.front().fail_data},
                                    {ShardKey(0), queries_.front().fail_data}};
  const auto results = store.DiagnoseBatch(queries, 5, 1);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_TRUE(results[0].empty());
  EXPECT_FALSE(results[1].empty());
}

}  // namespace
}  // namespace bistdse::bist
