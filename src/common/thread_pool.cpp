#include "common/thread_pool.hpp"

#include <algorithm>
#include <exception>

namespace trdse::common {

namespace {

thread_local ThreadPool* tCurrent = nullptr;

/// Marks the calling thread as running a task of `pool` for one scope and
/// restores the previous marker on exit (nested calls, exceptions).
class CurrentScope {
 public:
  explicit CurrentScope(ThreadPool* pool) : prev_(tCurrent) { tCurrent = pool; }
  ~CurrentScope() { tCurrent = prev_; }
  CurrentScope(const CurrentScope&) = delete;
  CurrentScope& operator=(const CurrentScope&) = delete;

 private:
  ThreadPool* prev_;
};

}  // namespace

/// One parallelFor() call. Items are claimed under the pool mutex (`next`),
/// completions are counted under the batch's own mutex, which the caller
/// waits on — so the caller waits for its items, never for a helper job.
struct ThreadPool::Batch {
  const std::function<void(std::size_t)>* fn = nullptr;
  std::size_t count = 0;
  std::size_t next = 0;  ///< next unclaimed item (pool mutex)
  std::size_t done = 0;  ///< finished items (batch mutex)
  std::exception_ptr error;  ///< first item exception (batch mutex)
  std::mutex mutex;
  std::condition_variable cv;

  void run(std::size_t i) {
    std::exception_ptr err;
    try {
      (*fn)(i);
    } catch (...) {
      err = std::current_exception();
    }
    std::lock_guard<std::mutex> lock(mutex);
    if (err && !error) error = std::move(err);
    if (++done == count) cv.notify_all();
  }
};

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::thread::hardware_concurrency();
    if (threads == 0) threads = 1;
  }
  workers_.reserve(threads - 1);
  for (std::size_t i = 1; i < threads; ++i)  // the caller is the Nth thread
    workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

ThreadPool* ThreadPool::current() { return tCurrent; }

void ThreadPool::workerLoop() {
  tCurrent = this;
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    cv_.wait(lock, [this] { return stopping_ || !open_.empty(); });
    if (open_.empty()) return;  // stopping and drained
    const std::shared_ptr<Batch> batch = open_.front();
    const std::size_t i = batch->next++;
    if (batch->next == batch->count) open_.pop_front();
    lock.unlock();
    batch->run(i);
    lock.lock();
  }
}

void ThreadPool::parallelFor(std::size_t count,
                             const std::function<void(std::size_t)>& fn) {
  if (count == 0) return;
  const CurrentScope scope(this);
  if (workers_.empty() || count == 1) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }

  const auto batch = std::make_shared<Batch>();
  batch->fn = &fn;
  batch->count = count;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    open_.push_back(batch);
  }
  const std::size_t helpers = std::min(workers_.size(), count - 1);
  if (helpers == workers_.size()) {
    cv_.notify_all();
  } else {
    for (std::size_t h = 0; h < helpers; ++h) cv_.notify_one();
  }

  // The caller works through its own items only: it never picks up another
  // batch's work, so it is free the moment its last item finishes.
  for (;;) {
    std::size_t i = 0;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (batch->next == batch->count) break;
      i = batch->next++;
      if (batch->next == batch->count)
        open_.erase(std::find(open_.begin(), open_.end(), batch));
    }
    batch->run(i);
  }

  std::unique_lock<std::mutex> lock(batch->mutex);
  batch->cv.wait(lock, [&] { return batch->done == batch->count; });
  if (batch->error) std::rethrow_exception(batch->error);
}

void parallelForOn(ThreadPool* pool, std::size_t count,
                   const std::function<void(std::size_t)>& fn) {
  if (pool != nullptr) {
    pool->parallelFor(count, fn);
    return;
  }
  for (std::size_t i = 0; i < count; ++i) fn(i);
}

std::uint64_t perTaskSeed(std::uint64_t base, std::uint64_t index) {
  // SplitMix64 finalizer over base + golden-ratio stride.
  std::uint64_t z = base + 0x9E3779B97F4A7C15ULL * (index + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace trdse::common
