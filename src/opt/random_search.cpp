#include "opt/random_search.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "io/checkpoint.hpp"
#include "io/state_io.hpp"

namespace trdse::opt {

namespace {
constexpr char kCheckpointKind[] = "random-search";
}  // namespace

RandomSearch::RandomSearch(core::SizingProblem problem, std::uint64_t seed,
                           std::size_t budget)
    : problem_(std::move(problem)),
      value_(problem_.measurementNames, problem_.specs),
      engine_(problem_),
      rng_(seed),
      seed_(seed),
      budget_(budget) {}

bool RandomSearch::finished() const {
  return result_.solved || result_.iterations >= budget_;
}

const StrategyOutcome& RandomSearch::step(std::size_t target) {
  target = std::min(target, budget_);
  const eval::LookaheadScope lookahead(engine_);
  const auto harvest = [this]() -> const StrategyOutcome& {
    result_.evalStats = engine_.stats();
    // The ledger grows with the budget; snapshot it once, at the end.
    if (finished()) result_.ledger = engine_.ledger();
    return result_;
  };

  while (true) {
    if (!havePoint_) {
      // Outer gate: a new point starts only while the target allows it (the
      // original loop's `iterations < maxSimulations` condition).
      if (result_.solved || result_.iterations >= target) break;
      x_ = problem_.space.randomPoint(rng_);
      cornerPos_ = 0;
      worst_ = 0.0;
      havePoint_ = true;
    }
    // Sequential corner sweep with early exit; every check is one logical
    // engine request. Budget checks sit exactly where the original
    // single-pass loop had them (before each corner evaluation).
    bool failed = false;
    while (cornerPos_ < problem_.corners.size()) {
      if (result_.iterations >= budget_) {
        // Total budget exhausted mid-sweep: like the pre-refactor loop, the
        // partial point is abandoned without a best-value update.
        havePoint_ = false;
        return harvest();
      }
      if (result_.iterations >= target) return harvest();  // pause; resumes
      // Lookahead: the first corner of each sizing this step can still
      // start (the k-th next one starts no earlier than k + 1 requests from
      // now), drawn on a copy of the rng, at most two lane passes' worth
      // ahead: enough for a corner miss to fill its pass while the last
      // pass's sizings wait in the engine's buffer. Without that bound,
      // sizings that pass corners make every miss reach further out, and
      // the buffer grows until the step ends and drops it.
      const std::size_t startable =
          std::min(target - result_.iterations - 1,
                   2 * (engine_.backend().batchWidth() - 1));
      const core::EvalResult r = engine_.evalOne(
          cornerPos_, x_, pvt::BlockKind::kSearch,
          [this, startable](std::size_t k, linalg::Vector& sizes,
                            std::size_t& corner) {
            if (k >= startable) return false;
            if (k == 0) aheadRng_ = rng_;
            sizes = problem_.space.randomPoint(aheadRng_);
            corner = 0;
            return true;
          });
      ++result_.iterations;
      const double v = value_.valueOf(r);
      worst_ = std::min(worst_, v);
      if (!r.ok || !value_.satisfied(r.measurements)) {
        failed = true;
        break;  // early exit: no need to burn blocks on remaining corners
      }
      ++cornerPos_;
    }
    havePoint_ = false;
    if (worst_ > result_.bestValue) {
      result_.bestValue = worst_;
      result_.sizes = x_;
    }
    if (!failed) {
      result_.solved = true;
      result_.sizes = x_;
      return harvest();
    }
  }
  return harvest();
}

std::string RandomSearch::saveCheckpointBlob() const {
  io::CheckpointWriter w(kCheckpointKind);
  io::SectionWriter& cfg = w.section("config");
  cfg.str(problem_.name);
  cfg.u64(problem_.space.dim());
  cfg.u64(problem_.corners.size());
  cfg.u64(budget_);

  io::SectionWriter& st = w.section("state");
  io::writeRng(st, rng_);
  st.boolean(havePoint_);
  st.vec(x_);
  st.u64(cornerPos_);
  st.f64(worst_);
  st.boolean(result_.solved);
  st.u64(result_.iterations);
  st.vec(result_.sizes);
  st.f64(result_.bestValue);
  st.vec(result_.bestMeasurements);

  engine_.saveState(w.section("engine"));
  return w.finish();
}

void RandomSearch::restoreCheckpointBlob(const std::string& blob,
                                         const std::string& source) {
  const io::CheckpointReader r(source, blob);
  try {
    restoreSections(r);
  } catch (...) {
    // Never leave the strategy half-restored: reset to the freshly-seeded
    // state (a caller that catches the error and runs anyway gets a clean
    // search), then rethrow.
    rng_.seed(seed_);
    havePoint_ = false;
    x_ = linalg::Vector{};
    cornerPos_ = 0;
    worst_ = 0.0;
    result_ = StrategyOutcome{};
    engine_.clearCache();
    engine_.resetAccounting();
    throw;
  }
}

void RandomSearch::restoreSections(const io::CheckpointReader& r) {
  r.expectKind(kCheckpointKind);

  io::SectionReader cfg = r.section("config");
  const std::string name = cfg.str();
  if (name != problem_.name)
    cfg.fail("checkpoint was taken on problem \"" + name +
             "\", restoring into \"" + problem_.name + "\"");
  if (cfg.u64() != problem_.space.dim())
    cfg.fail("design-space dimensionality mismatch");
  if (cfg.u64() != problem_.corners.size()) cfg.fail("corner count mismatch");
  const std::uint64_t budget = cfg.u64();
  if (budget != budget_)
    cfg.fail("checkpoint was taken with budget " + std::to_string(budget) +
             ", restoring into budget " + std::to_string(budget_));
  cfg.expectEnd();

  io::SectionReader st = r.section("state");
  io::readRng(st, rng_);
  havePoint_ = st.boolean();
  x_ = st.vec();
  cornerPos_ = st.u64();
  worst_ = st.f64();
  result_ = StrategyOutcome{};
  result_.solved = st.boolean();
  result_.iterations = st.u64();
  result_.sizes = st.vec();
  result_.bestValue = st.f64();
  result_.bestMeasurements = st.vec();
  st.expectEnd();
  if (havePoint_ && (x_.size() != problem_.space.dim() ||
                     cornerPos_ >= problem_.corners.size()))
    st.fail("mid-sweep state is inconsistent with the problem shape");

  io::SectionReader eng = r.section("engine");
  engine_.restoreState(eng);
  eng.expectEnd();

  result_.ledger = engine_.ledger();
  result_.evalStats = engine_.stats();
}

}  // namespace trdse::opt
