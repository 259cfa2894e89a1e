// Fixed-size worker pool for coarse-grained task parallelism: PVT corner
// evaluations, Monte Carlo mismatch/yield sampling, per-job scheduler rounds,
// and the fan-out *inside* one job's step (per-corner surrogate fits and
// row-chunked candidate scoring).
//
// Threading contract:
//  - `threads = N` runs at most N tasks at once: N - 1 workers plus the
//    thread that calls parallelFor(). A pool of size <= 1 has no workers and
//    executes every task inline on the calling thread, so serial
//    configurations stay bitwise identical to the pre-pool code.
//  - Nesting is safe. A task may call parallelFor() on the pool it runs on:
//    the calling thread works through its own items while idle workers help,
//    and the call returns as soon as its items are done — it never waits for
//    a busy worker to pick a helper job up, so a fan-out inside a busy pool
//    cannot deadlock, and because no thread is added, it cannot oversubscribe.
//  - current() names the pool whose task the calling thread is running, so
//    code several layers below the scheduler can fan out on the round's
//    threads without a pool being threaded through every signature.
//
// Design notes for determinism:
//  - parallelFor() indexes tasks, so callers write results into per-index
//    slots and merge them in index order afterwards; outcomes then do not
//    depend on thread count or scheduling.
//  - Randomized workloads should either draw every rng sample serially before
//    the fan-out (in index order) or derive one RNG stream per task index
//    (see perTaskSeed) instead of sharing a generator across tasks.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace trdse::common {

class ThreadPool {
 public:
  /// `threads` is the most tasks that run at once, the caller included;
  /// `threads == 0` uses std::thread::hardware_concurrency(), `threads == 1`
  /// creates no workers (inline execution).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads: `threads - 1` (0 means inline execution).
  std::size_t workerCount() const { return workers_.size(); }

  /// Run fn(i) for every i in [0, count) and block until all complete. The
  /// calling thread works too, and idle workers help; the call returns when
  /// its items are done. Safe to call from inside a task of this pool. The
  /// first exception thrown by any item is rethrown here after completion.
  void parallelFor(std::size_t count,
                   const std::function<void(std::size_t)>& fn);

  /// The pool whose task the calling thread is running (set on workers and,
  /// for the duration of parallelFor(), on its caller); null outside any.
  static ThreadPool* current();

 private:
  struct Batch;

  void workerLoop();

  std::vector<std::thread> workers_;
  /// Batches that still have unclaimed items, oldest first.
  std::deque<std::shared_ptr<Batch>> open_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
};

/// fn(i) for every i in [0, count): on `pool` when it is non-null, inline on
/// the calling thread otherwise.
void parallelForOn(ThreadPool* pool, std::size_t count,
                   const std::function<void(std::size_t)>& fn);

/// A well-mixed 64-bit seed for task `index` of a run seeded with `base` —
/// SplitMix64 finalizer, so adjacent indices land far apart in seed space.
/// Gives every Monte Carlo task its own RNG stream: results are then
/// independent of how tasks are scheduled across threads.
std::uint64_t perTaskSeed(std::uint64_t base, std::uint64_t index);

}  // namespace trdse::common
