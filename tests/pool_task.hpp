// Runs test code the way a scheduler round steps a job: as a task of a
// common::ThreadPool, whose threads the code below (a TRM step's fits and
// planner chunks, the eval engine's corner chunks) may fan out on.
#pragma once

#include <cstddef>

#include "common/thread_pool.hpp"

namespace trdse::testing_pool {

/// The pool sizes fan-out invariance tests cover; 0 means no pool at all.
inline constexpr std::size_t kPoolSizes[] = {0, 1, 2, 4};

/// fn() inside a task of a fresh ThreadPool(threads), or on the calling
/// thread outside any pool when threads == 0.
template <class Fn>
void inPoolTask(std::size_t threads, Fn&& fn) {
  if (threads == 0) {
    fn();
    return;
  }
  common::ThreadPool pool(threads);
  pool.parallelFor(1, [&](std::size_t) { fn(); });
}

}  // namespace trdse::testing_pool
