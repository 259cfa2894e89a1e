// Whole-struct EvalStats comparisons for tests. Every counter is part of the
// determinism contract, so two runs of one seeded search (whole and resumed,
// or at other thread, worker or lane counts) agree on all of them;
// backendSeconds is wall clock and outside that contract. Comparing
// countersOf(a) with countersOf(b) checks every field but that one, so a
// counter added to EvalStats later is compared without editing any test.
#pragma once

#include <ostream>

#include "eval/eval_engine.hpp"

namespace trdse::eval {

/// gtest's printer: a mismatch names each field.
inline void PrintTo(const EvalStats& s, std::ostream* os) {
  *os << "{requests=" << s.requests << " simulated=" << s.simulated
      << " cacheHits=" << s.cacheHits << " sharedHits=" << s.sharedHits
      << " backendSeconds=" << s.backendSeconds << " attempts=" << s.attempts
      << " faults=" << s.faults << " failures=" << s.failures
      << " backoffUnits=" << s.backoffUnits << "}";
}

}  // namespace trdse::eval

namespace trdse::testing_stats {

/// `s` with its wall-clock field zeroed.
inline eval::EvalStats countersOf(eval::EvalStats s) {
  s.backendSeconds = 0.0;
  return s;
}

}  // namespace trdse::testing_stats
