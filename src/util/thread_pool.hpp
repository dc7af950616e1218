// Shared work-chunking thread pool — the one executor behind every parallel
// layer of the library (fault-partitioned simulation, island-parallel DSE).
//
// ParallelFor() splits an index range into contiguous chunks and runs them on
// the pool's workers while the calling thread helps execute chunks of its own
// loop. Each chunk carries a dense *slot* index in [0, chunk count); two
// chunks never run concurrently under the same slot, so callers can keep
// per-slot scratch state (e.g. a fault-simulator clone per slot). A call
// from inside a chunk (an island's decoder shards inside the island loop)
// enqueues its chunks like any other, so idle workers join in, and its
// caller helps as usual. It cannot deadlock: a waiting thread has drained
// its own loop's cursor and waits only on chunks other threads are running,
// which wait, if at all, only on loops nested deeper (PERF.md, "Nesting
// rule").
//
// Determinism contract: the pool makes no ordering promise between chunks,
// so parallel algorithms built on it must write results per index and merge
// them in index order. Every user in this library does exactly that, which
// is what keeps parallel results bit-identical to the serial path for any
// thread count.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace bistdse::util {

class ThreadPool {
 public:
  /// Body of one chunk: half-open index range plus the chunk's slot index.
  using ChunkBody =
      std::function<void(std::size_t begin, std::size_t end, std::size_t slot)>;

  /// Spawns `workers` worker threads; 0 means hardware concurrency.
  explicit ThreadPool(std::size_t workers = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t WorkerCount() const { return workers_.size(); }

  /// Runs `body` over [begin, end) split into at most `max_chunks` contiguous
  /// chunks (0 = worker count + 1, counting the helping caller). Blocks until
  /// every chunk finished; the first exception thrown by any chunk is
  /// rethrown here. An empty range returns immediately without invoking
  /// `body`; a single chunk runs inline on the caller. Safe to call from
  /// inside a chunk body: the nested loop's chunks are enqueued, and the
  /// calling thread helps run them.
  void ParallelFor(std::size_t begin, std::size_t end, std::size_t max_chunks,
                   const ChunkBody& body);

  /// The process-wide executor shared by fault simulation and the island
  /// explorer, sized to the hardware. Sharing one pool is what prevents
  /// oversubscription when both layers are active at once.
  static ThreadPool& Global();

 private:
  struct ForState;

  void WorkerLoop();
  /// Executes one pending chunk of `state`; false if none were left.
  static bool RunOneChunk(ForState& state);

  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable work_cv_;
  std::deque<std::shared_ptr<ForState>> pending_;
  bool stop_ = false;
};

}  // namespace bistdse::util
