// Sharded, mutex-protected memo table shared by concurrent consumers — the
// cross-island implementation-signature cache of the evaluation engine.
//
// Values must be pure functions of their key: when two threads race on the
// same absent key both may compute, but only the first insert sticks, so
// every reader observes one canonical value. That property (not locking
// through the compute) is what keeps expensive evaluations off the lock.
#pragma once

#include <array>
#include <cstdint>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <utility>

namespace bistdse::util {

template <typename Key, typename Value, std::size_t Shards = 16>
class ConcurrentMemo {
  static_assert(Shards > 0);

 public:
  /// Canonical value for `key`, or nullopt when absent.
  std::optional<Value> Lookup(const Key& key) const {
    const Shard& shard = ShardFor(key);
    std::lock_guard lock(shard.mutex);
    const auto it = shard.map.find(key);
    if (it == shard.map.end()) return std::nullopt;
    return it->second;
  }

  /// Inserts (key, value) if absent and returns the canonical value (the
  /// already-present one on a lost race).
  Value Insert(const Key& key, Value value) {
    Shard& shard = ShardFor(key);
    std::lock_guard lock(shard.mutex);
    return shard.map.emplace(key, std::move(value)).first->second;
  }

  /// Canonical value for `key`, computing it via `compute()` (outside the
  /// shard lock) when absent. `*hit` reports whether the lookup succeeded.
  template <typename Compute>
  Value GetOrCompute(const Key& key, Compute&& compute, bool* hit = nullptr) {
    if (auto found = Lookup(key)) {
      if (hit != nullptr) *hit = true;
      return *std::move(found);
    }
    if (hit != nullptr) *hit = false;
    return Insert(key, std::forward<Compute>(compute)());
  }

  std::size_t Size() const {
    std::size_t total = 0;
    for (const Shard& shard : shards_) {
      std::lock_guard lock(shard.mutex);
      total += shard.map.size();
    }
    return total;
  }

 private:
  struct Shard {
    mutable std::mutex mutex;
    std::unordered_map<Key, Value> map;
  };

  const Shard& ShardFor(const Key& key) const {
    return shards_[std::hash<Key>{}(key) % Shards];
  }
  Shard& ShardFor(const Key& key) {
    return shards_[std::hash<Key>{}(key) % Shards];
  }

  std::array<Shard, Shards> shards_;
};

}  // namespace bistdse::util
