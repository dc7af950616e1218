#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>

namespace bistdse::util {

struct ThreadPool::ForState {
  std::size_t begin = 0;
  std::size_t end = 0;
  std::size_t chunks = 0;
  const ChunkBody* body = nullptr;

  std::atomic<std::size_t> next_chunk{0};
  std::mutex mutex;
  std::condition_variable done_cv;
  std::size_t done_chunks = 0;
  std::exception_ptr error;

  /// Index range of chunk `c`: an even split with the remainder spread over
  /// the leading chunks.
  std::pair<std::size_t, std::size_t> ChunkRange(std::size_t c) const {
    const std::size_t n = end - begin;
    const std::size_t base = n / chunks;
    const std::size_t extra = n % chunks;
    const std::size_t lo = begin + c * base + std::min(c, extra);
    return {lo, lo + base + (c < extra ? 1 : 0)};
  }
};

ThreadPool::ThreadPool(std::size_t workers) {
  if (workers == 0) {
    workers = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

ThreadPool& ThreadPool::Global() {
  static ThreadPool pool;
  return pool;
}

bool ThreadPool::RunOneChunk(ForState& state) {
  const std::size_t c = state.next_chunk.fetch_add(1, std::memory_order_relaxed);
  if (c >= state.chunks) return false;
  std::exception_ptr error;
  try {
    const auto [lo, hi] = state.ChunkRange(c);
    (*state.body)(lo, hi, c);
  } catch (...) {
    error = std::current_exception();
  }
  {
    std::lock_guard<std::mutex> lock(state.mutex);
    if (error && !state.error) state.error = std::move(error);
    if (++state.done_chunks == state.chunks) state.done_cv.notify_all();
  }
  return true;
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::shared_ptr<ForState> state;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock, [this] { return stop_ || !pending_.empty(); });
      if (stop_) return;
      state = pending_.front();
      if (state->next_chunk.load(std::memory_order_relaxed) >= state->chunks) {
        pending_.pop_front();
        continue;
      }
    }
    RunOneChunk(*state);
  }
}

void ThreadPool::ParallelFor(std::size_t begin, std::size_t end,
                             std::size_t max_chunks, const ChunkBody& body) {
  if (end <= begin) return;
  const std::size_t n = end - begin;
  if (max_chunks == 0) max_chunks = workers_.size() + 1;
  const std::size_t chunks = std::min(n, std::max<std::size_t>(1, max_chunks));

  if (chunks == 1) {
    body(begin, end, 0);  // inline; exceptions propagate directly
    return;
  }

  auto state = std::make_shared<ForState>();
  state->begin = begin;
  state->end = end;
  state->chunks = chunks;
  state->body = &body;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    pending_.push_back(state);
  }
  work_cv_.notify_all();

  // The caller helps: it pulls chunks through the same atomic cursor the
  // workers use, so progress never depends on worker availability. This
  // holds for a nested call too: the calling thread drains its own loop's
  // cursor before it waits, and then waits only on chunks other threads are
  // running (PERF.md, "Nesting rule").
  while (RunOneChunk(*state)) {
  }
  {
    std::unique_lock<std::mutex> lock(state->mutex);
    state->done_cv.wait(lock,
                        [&] { return state->done_chunks == state->chunks; });
  }
  {
    // Drop the drained loop from the queue if a worker has not already.
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = std::find(pending_.begin(), pending_.end(), state);
    if (it != pending_.end()) pending_.erase(it);
  }
  if (state->error) std::rethrow_exception(state->error);
}

}  // namespace bistdse::util
