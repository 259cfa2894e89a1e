#include "core/pvt_search.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "common/thread_pool.hpp"
#include "io/checkpoint.hpp"
#include "io/state_io.hpp"
#include "pvt/corners.hpp"

namespace trdse::core {

namespace {

/// Checkpoint `kind` tag for PvtSearch snapshots.
constexpr const char* kCheckpointKind = "pvt-search";

}  // namespace

std::string_view toString(PvtStrategy s) {
  switch (s) {
    case PvtStrategy::kBruteForce:
      return "brute-force";
    case PvtStrategy::kProgressiveRandom:
      return "progressive(random)";
    case PvtStrategy::kProgressiveHardest:
      return "progressive(hardest)";
  }
  return "?";
}

PvtSearch::PvtSearch(SizingProblem problem, PvtSearchConfig config)
    : problem_(std::move(problem)),
      config_(std::move(config)),
      // note: value_ must be built from the member, not the moved-from param
      value_(problem_.measurementNames, problem_.specs),
      engine_(problem_),
      rng_(config_.seed),
      tr_(config_.explorer.trustRegion) {
  // An episode with no init sample returns to its start without evaluating
  // anything, so the search never spends its budget; a plan with no
  // candidate never takes a TRM step.
  if (config_.explorer.initSamples == 0)
    throw std::invalid_argument("PvtSearch: initSamples must be >= 1");
  if (config_.explorer.mcSamples == 0)
    throw std::invalid_argument("PvtSearch: mcSamples must be >= 1");
  value_.setMarginBonus(config_.explorer.marginBonus);
}

std::vector<EvalResult> PvtSearch::evalCorners(
    const std::vector<std::size_t>& corners, const linalg::Vector& sizes,
    pvt::BlockKind kind, const eval::Lookahead& next) {
  // The engine memoizes, fans real simulations out on the step's pool,
  // merges in request order, and records the ledger blocks; the search
  // budget is charged per logical request so trajectories are
  // cache-invariant.
  std::vector<EvalResult> results =
      engine_.evalBatch(corners, sizes, kind, next);
  result_.totalSims = engine_.stats().requests;
  return results;
}

double PvtSearch::poolValue(const std::vector<EvalResult>& evals) const {
  // min over corners of the plannerScore — the paper's "lowest expected
  // value" candidate rule, with the same margin tie-break the planner uses.
  double v = std::numeric_limits<double>::infinity();
  for (const auto& e : evals)
    v = std::min(v, e.ok ? value_.plannerScore(e.measurements) : kFailedValue);
  return evals.empty() ? kFailedValue : v;
}

void PvtSearch::considerBest(const linalg::Vector& sizes,
                             const std::vector<EvalResult>& evals) {
  const EvalResult* worst = nullptr;
  double worstValue = 0.0;
  for (const EvalResult& e : evals) {
    const double v = value_.valueOf(e);
    if (worst == nullptr || v < worstValue) {
      worst = &e;
      worstValue = v;
    }
  }
  if (worst == nullptr || worstValue <= result_.bestValue) return;
  result_.sizes = sizes;
  result_.bestValue = worstValue;
  result_.bestEval = *worst;
}

const SpiceSurrogate* PvtSearch::surrogate(std::size_t corner) const {
  for (const auto& cs : active_)
    if (cs.index == corner) return cs.surrogate.get();
  return nullptr;
}

void PvtSearch::activate(std::size_t idx) {
  if (isActive_[idx]) return;
  isActive_[idx] = 1;
  CornerState cs;
  cs.index = idx;
  active_.push_back(std::move(cs));
  result_.cornersActivated = active_.size();
}

void PvtSearch::ensureSurrogates(std::size_t measDim) {
  measDim_ = measDim;
  const std::size_t dim = problem_.space.dim();
  for (auto& cs : active_) {
    if (!cs.surrogate) {
      cs.surrogate = std::make_unique<SpiceSurrogate>(
          dim, measDim, config_.explorer.surrogate,
          config_.seed + 101 * (cs.index + 1));
      // A donor network of another shape is skipped, not adopted.
      if (config_.explorer.warmStartWeights != nullptr)
        cs.surrogate->adoptWeights(*config_.explorer.warmStartWeights);
    }
  }
}

void PvtSearch::initialize() {
  // Fresh accounting for a search started from scratch (a restored search
  // keeps its checkpointed accounting instead; the memo always survives —
  // backends are pure, so earlier results stay valid and keep saving blocks).
  engine_.resetAccounting();
  const std::size_t nCorners = problem_.corners.size();
  assert(nCorners > 0);
  isActive_.assign(nCorners, 0);
  active_.clear();
  switch (config_.strategy) {
    case PvtStrategy::kBruteForce:
      for (std::size_t i = 0; i < nCorners; ++i) activate(i);
      break;
    case PvtStrategy::kProgressiveRandom: {
      std::uniform_int_distribution<std::size_t> d(0, nCorners - 1);
      activate(d(rng_));
      break;
    }
    case PvtStrategy::kProgressiveHardest: {
      const auto order = pvt::heuristicHardestFirst(
          problem_.corners, problem_.corners.front().vdd);
      activate(order.front());
      break;
    }
  }
  initialized_ = true;
}

PvtSearch::Point PvtSearch::evaluatePoint(const linalg::Vector& rawSizes,
                                          const eval::Lookahead& next) {
  // Evaluate a point on every active corner (bailing early once a corner
  // fails hard is *not* done: every active corner's model needs data). The
  // corner simulations fan out across the pool; trajectory bookkeeping runs
  // after the join, in pool order.
  Point p;
  p.sizes = problem_.space.snap(rawSizes);
  p.unit = problem_.space.toUnit(p.sizes);
  cornerIdxScratch_.clear();
  for (const auto& cs : active_) cornerIdxScratch_.push_back(cs.index);
  p.evals =
      evalCorners(cornerIdxScratch_, p.sizes, pvt::BlockKind::kSearch, next);
  for (std::size_t i = 0; i < active_.size(); ++i) {
    const EvalResult& r = p.evals[i];
    if (r.ok) {
      if (!measDim_.has_value()) ensureSurrogates(r.measurements.size());
      active_[i].data.add(p.unit, r.measurements);
    }
  }
  p.value = poolValue(p.evals);
  return p;
}

bool PvtSearch::poolSatisfied(const Point& p) const {
  for (const auto& e : p.evals)
    if (!e.ok || !value_.satisfied(e.measurements)) return false;
  return true;
}

bool PvtSearch::verifyAndExpand(const Point& p) {
  // Verify inactive corners; returns true when all pass, otherwise activates
  // the failing corner with the lowest value (paper IV-E).
  const std::size_t nCorners = problem_.corners.size();
  std::size_t worstIdx = nCorners;
  double worstValue = 1.0;
  std::vector<EvalResult> finals(nCorners);
  for (std::size_t i = 0; i < active_.size(); ++i)
    finals[active_[i].index] = p.evals[i];
  cornerIdxScratch_.clear();
  for (std::size_t c = 0; c < nCorners; ++c)
    if (!isActive_[c]) cornerIdxScratch_.push_back(c);
  std::vector<EvalResult> verdicts =
      evalCorners(cornerIdxScratch_, p.sizes, pvt::BlockKind::kVerify);
  for (std::size_t i = 0; i < cornerIdxScratch_.size(); ++i) {
    const std::size_t c = cornerIdxScratch_[i];
    EvalResult& r = verdicts[i];
    const double v = value_.valueOf(r);
    const bool pass = r.ok && value_.satisfied(r.measurements);
    finals[c] = std::move(r);
    if (!pass && v < worstValue) {
      worstValue = v;
      worstIdx = c;
    }
  }
  // A solving point's Value is 0, above every unsolved point's, so the best
  // point becomes the solution.
  considerBest(p.sizes, finals);
  if (worstIdx == nCorners) {
    result_.solved = true;
    result_.sizes = p.sizes;
    result_.cornerEvals = std::move(finals);
    return true;
  }
  activate(worstIdx);
  if (measDim_.has_value()) ensureSurrogates(*measDim_);
  return false;
}

bool PvtSearch::signOff(const Point& p) {
  if (poolSatisfied(p)) return verifyAndExpand(p);
  considerBest(p.sizes, p.evals);
  return false;
}

PvtSearchOutcome PvtSearch::run(std::size_t maxSims) {
  if (!initialized_) initialize();
  // Init samples look ahead only as far as this budget, and nothing looked
  // ahead outlives the call, so no snapshot ever holds any of it.
  const eval::LookaheadScope lookahead(engine_);
  runLimit_ = maxSims;
  while (phase_ != Phase::kDone && result_.totalSims < maxSims) stepOnce();
  // Harvest the engine accounting at every exit; the loop state stays live
  // so a later run()/restore can continue the search.
  PvtSearchOutcome out = result_;
  out.ledger = engine_.ledger();
  out.evalStats = engine_.stats();
  return out;
}

void PvtSearch::stepOnce() {
  switch (phase_) {
    case Phase::kEpisodeStart:
      center_ = Point{};
      haveCenter_ = false;
      initK_ = 0;
      phase_ = Phase::kInitSample;
      return;
    case Phase::kInitSample:
      stepInitSample();
      return;
    case Phase::kTrmStep:
      stepTrm();
      return;
    case Phase::kDone:
      return;
  }
}

void PvtSearch::stepInitSample() {
  if (initK_ >= config_.explorer.initSamples) {
    // Episode sampled out: dive into the best region found — or resample
    // from scratch when every draw failed to simulate.
    if (!haveCenter_ || !measDim_.has_value()) {
      phase_ = Phase::kEpisodeStart;
      return;
    }
    tr_ = TrustRegion(config_.explorer.trustRegion);
    sinceRestart_ = 0;
    sinceImprovement_ = 0;
    phase_ = Phase::kTrmStep;
    return;
  }
  // Porting: the very first sample is the donor's optimum (no rng draw).
  const std::optional<linalg::Vector>& start = config_.explorer.startingPoint;
  const linalg::Vector x = initK_ == 0 && result_.totalSims == 0 && start
                               ? *start
                               : problem_.space.randomPoint(rng_);
  // Lookahead: the episode's later samples, each on the active corners in
  // pool order, drawn on a copy of rng_ only when the engine asks (no other
  // draw falls between two init samples). The j-th later sample starts no
  // earlier than j pool sweeps from now, so the offer ends at the episode's
  // last sample and at the last one this run()'s budget can start.
  const std::size_t nActive = active_.size();
  const std::size_t later =
      std::min(config_.explorer.initSamples - initK_ - 1,
               (runLimit_ - result_.totalSims - 1) / nActive);
  std::optional<std::mt19937_64> aheadRng;
  linalg::Vector ahead;
  Point p = evaluatePoint(x, [&](std::size_t k, linalg::Vector& sizes,
                                 std::size_t& corner) {
    if (k >= later * nActive) return false;
    if (k == 0) aheadRng.emplace(rng_);
    if (k % nActive == 0) ahead = problem_.space.randomPoint(*aheadRng);
    sizes = ahead;
    corner = active_[k % nActive].index;
    return true;
  });
  ++initK_;
  if (signOff(p)) {
    phase_ = Phase::kDone;
    return;
  }
  if (p.value > center_.value || !haveCenter_) {
    center_ = std::move(p);
    haveCenter_ = true;
  }
}

void PvtSearch::stepTrm() {
  // Fan out on the pool this step runs on (a scheduler round's threads), or
  // inline when there is none. Every rng draw stays on this thread, in pool
  // order; only pure per-corner and per-row work runs concurrently.
  common::ThreadPool* const pool = common::ThreadPool::current();

  // Train every active surrogate on its own *local* trajectory (D_L): draw
  // each corner's epoch shuffles in pool order, then fit them concurrently.
  fitting_.clear();
  for (auto& cs : active_) {
    if (!cs.surrogate || cs.data.empty()) continue;
    LocalDataset::Selection sel = cs.data.selectLocal(
        center_.unit, config_.explorer.localityFactor * tr_.radius(),
        config_.explorer.minLocalSamples);
    if (sel.inputs.empty()) continue;
    cs.surrogate->setData(std::move(sel.inputs), std::move(sel.targets));
    cs.surrogate->drawShuffles(rng_);
    fitting_.push_back(cs.surrogate.get());
  }
  common::parallelForOn(pool, fitting_.size(),
                        [&](std::size_t k) { fitting_[k]->fit(); });

  // Plan: maximize the minimum predicted value across the pool. The
  // candidate block is drawn once and every active corner's surrogate scores
  // it; per-candidate scores then reduce by min across corners.
  scoring_.clear();
  for (const auto& cs : active_)
    if (cs.surrogate) scoring_.push_back(cs.surrogate.get());
  const std::size_t mcSamples = config_.explorer.mcSamples;
  const std::size_t best =
      planner_.plan(problem_.space, value_, scoring_, center_.unit,
                    tr_.radius(), mcSamples, rng_, pool);
  if (best == mcSamples) {
    phase_ = Phase::kEpisodeStart;
    return;
  }
  const double bestModelValue = planner_.scores()[best];
  const double* bestRow = planner_.candidates().row(best);
  const linalg::Vector bestUnit(bestRow, bestRow + problem_.space.dim());

  double predictedCenter = std::numeric_limits<double>::infinity();
  for (auto& cs : active_) {
    if (!cs.surrogate) continue;
    predictedCenter = std::min(
        predictedCenter, value_.plannerScore(cs.surrogate->predict(center_.unit)));
  }
  const double predictedDelta = bestModelValue - predictedCenter;

  Point trial = evaluatePoint(problem_.space.fromUnit(bestUnit));
  if (signOff(trial)) {
    phase_ = Phase::kDone;
    return;
  }

  const double actualDelta =
      trial.value <= kFailedValue ? -1.0 : trial.value - center_.value;
  const TrustRegionStep step = tr_.evaluateStep(predictedDelta, actualDelta);
  if (step.accepted && trial.value > kFailedValue) {
    sinceImprovement_ = trial.value > center_.value ? 0 : sinceImprovement_ + 1;
    center_ = std::move(trial);
  } else {
    ++sinceImprovement_;
  }

  if (++sinceRestart_ > config_.explorer.restartAfter ||
      sinceImprovement_ > config_.explorer.stagnationPatience) {
    phase_ = Phase::kEpisodeStart;  // escape criterion: fresh global sampling
    for (auto& cs : active_)
      if (cs.surrogate)
        cs.surrogate->reinitialize(config_.seed + 997 * (result_.totalSims + 1));
  }

  ++trmSteps_;
}

// ---- Checkpointing --------------------------------------------------------

namespace {

/// The (key, value) fingerprint the checkpoint is stamped with; restoring
/// into a search whose fingerprint differs names the first mismatching key.
std::vector<std::pair<std::string, std::string>> fingerprintOf(
    const SizingProblem& problem, const PvtSearchConfig& config) {
  std::vector<std::pair<std::string, std::string>> fp;
  const auto num = [](double v) {
    std::ostringstream os;
    os.precision(17);
    os << v;
    return os.str();
  };
  fp.emplace_back("problem", problem.name);
  fp.emplace_back("dim", std::to_string(problem.space.dim()));
  for (const auto& p : problem.space.params())
    fp.emplace_back("param:" + p.name,
                    num(p.lo) + ":" + num(p.hi) + ":" +
                        std::to_string(p.steps) + ":" +
                        (p.logScale ? "log" : "lin"));
  for (const auto& m : problem.measurementNames)
    fp.emplace_back("measurement", m);
  // Spec thresholds shape the ValueFunction, the solved flag and every TRM
  // acceptance decision — a checkpoint saved under different specs must be
  // rejected, not silently continued.
  for (const auto& s : problem.specs)
    fp.emplace_back("spec:" + s.measurement,
                    std::string(s.kind == SpecKind::kAtLeast ? ">=" : "<=") +
                        num(s.limit));
  // Full corner conditions, not just the count: the restored memo is keyed
  // by corner *index*, so reusing it under silently-changed conditions would
  // serve stale simulations.
  fp.emplace_back("corners", std::to_string(problem.corners.size()));
  for (std::size_t c = 0; c < problem.corners.size(); ++c) {
    const sim::PvtCorner& pc = problem.corners[c];
    fp.emplace_back("corner:" + std::to_string(c),
                    std::to_string(static_cast<int>(pc.corner)) + ":" +
                        num(pc.vdd) + "V:" + num(pc.tempC) + "C");
  }
  fp.emplace_back("strategy", std::string(toString(config.strategy)));
  fp.emplace_back("seed", std::to_string(config.seed));
  const ExplorerConfig& e = config.explorer;
  fp.emplace_back("initSamples", std::to_string(e.initSamples));
  fp.emplace_back("mcSamples", std::to_string(e.mcSamples));
  fp.emplace_back("restartAfter", std::to_string(e.restartAfter));
  fp.emplace_back("stagnationPatience", std::to_string(e.stagnationPatience));
  fp.emplace_back("localityFactor", num(e.localityFactor));
  fp.emplace_back("minLocalSamples", std::to_string(e.minLocalSamples));
  const TrustRegionConfig& t = e.trustRegion;
  fp.emplace_back("trustRegion", num(t.initRadius) + ":" + num(t.minRadius) +
                                     ":" + num(t.maxRadius) + ":" +
                                     (t.adaptive ? "1" : "0"));
  const SurrogateConfig& s = e.surrogate;
  fp.emplace_back("surrogate", std::to_string(s.hiddenWidth) + "x" +
                                   std::to_string(s.hiddenLayers) + ":" +
                                   num(s.learningRate) + ":" +
                                   std::to_string(s.epochsPerUpdate) + ":" +
                                   std::to_string(s.batchSize));
  // Entries that exist only when set off their default, so checkpoints and
  // journals written before they existed keep matching.
  if (e.marginBonus != ExplorerConfig{}.marginBonus)
    fp.emplace_back("marginBonus", num(e.marginBonus));
  if (e.startingPoint.has_value()) {
    std::string v;
    for (const double x : *e.startingPoint)
      v += (v.empty() ? "" : ",") + num(x);
    fp.emplace_back("startingPoint", v);
  }
  if (e.warmStartWeights != nullptr) {
    const linalg::Vector w = e.warmStartWeights->getParameters();
    fp.emplace_back("warmStartWeights",
                    std::to_string(w.size()) + ":" +
                        std::to_string(io::fnv1a64(
                            reinterpret_cast<const char*>(w.data()),
                            w.size() * sizeof(double))));
  }
  return fp;
}

void writeEvals(io::SectionWriter& w, const std::vector<EvalResult>& evals) {
  w.u64(evals.size());
  for (const auto& e : evals) io::writeEvalResult(w, e);
}

std::vector<EvalResult> readEvals(io::SectionReader& r) {
  std::vector<EvalResult> evals;
  const std::uint64_t n = r.u64();
  for (std::uint64_t i = 0; i < n; ++i) evals.push_back(io::readEvalResult(r));
  return evals;
}

}  // namespace

std::string PvtSearch::save() const {
  io::CheckpointWriter w(kCheckpointKind);
  io::SectionWriter& fw = w.section("fingerprint");
  const auto fp = fingerprintOf(problem_, config_);
  fw.u64(fp.size());
  for (const auto& [k, v] : fp) {
    fw.str(k);
    fw.str(v);
  }

  io::writeRng(w.section("rng"), rng_);

  io::SectionWriter& sw = w.section("search");
  sw.boolean(initialized_);
  sw.u8(static_cast<std::uint8_t>(phase_));
  sw.u64(initK_);
  sw.boolean(haveCenter_);
  sw.vec(center_.sizes);
  sw.vec(center_.unit);
  writeEvals(sw, center_.evals);
  sw.f64(center_.value);
  sw.f64(tr_.radius());
  sw.u64(sinceRestart_);
  sw.u64(sinceImprovement_);
  sw.u64(trmSteps_);
  sw.u64(isActive_.size());
  for (const char a : isActive_) sw.boolean(a != 0);
  sw.boolean(measDim_.has_value());
  sw.u64(measDim_.value_or(0));
  sw.boolean(result_.solved);
  sw.u64(result_.totalSims);
  sw.vec(result_.sizes);
  writeEvals(sw, result_.cornerEvals);
  sw.u64(result_.cornersActivated);
  // ValueFunction's one piece of mutable state (the planner margin bonus).
  sw.f64(value_.marginBonus());

  io::SectionWriter& cw = w.section("corners");
  cw.u64(active_.size());
  for (const auto& cs : active_) {
    cw.u64(cs.index);
    io::writeDataset(cw, cs.data);
    cw.boolean(cs.surrogate != nullptr);
    if (cs.surrogate) io::writeSurrogate(cw, *cs.surrogate);
  }

  engine_.saveState(w.section("engine"));

  io::SectionWriter& bw = w.section("best");
  bw.f64(result_.bestValue);
  io::writeEvalResult(bw, result_.bestEval);
  return w.finish();
}

void PvtSearch::restore(const std::string& blob, const std::string& source) {
  const io::CheckpointReader r(source, blob);
  // A failure below (corrupt section, version skew) must not leave a
  // half-restored hybrid behind: reset to the freshly-constructed state so a
  // caller that catches the error and runs anyway gets a clean search.
  try {
    restoreSections(r);
  } catch (...) {
    initialized_ = false;
    phase_ = Phase::kEpisodeStart;
    initK_ = 0;
    haveCenter_ = false;
    center_ = Point{};
    tr_ = TrustRegion(config_.explorer.trustRegion);
    sinceRestart_ = 0;
    sinceImprovement_ = 0;
    trmSteps_ = 0;
    isActive_.clear();
    measDim_.reset();
    result_ = PvtSearchOutcome{};
    active_.clear();
    rng_.seed(config_.seed);
    value_ = ValueFunction(problem_.measurementNames, problem_.specs);
    value_.setMarginBonus(config_.explorer.marginBonus);
    engine_.resetAccounting();
    engine_.clearCache();
    throw;
  }
}

void PvtSearch::restoreSections(const io::CheckpointReader& r) {
  r.expectKind(kCheckpointKind);

  io::SectionReader fr = r.section("fingerprint");
  const auto current = fingerprintOf(problem_, config_);
  const std::uint64_t n = fr.u64();
  if (n != current.size())
    fr.fail("fingerprint has " + std::to_string(n) + " entries, this search " +
            std::to_string(current.size()) +
            " — checkpoint was saved from a different problem/configuration");
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::string key = fr.str();
    const std::string value = fr.str();
    if (key != current[i].first || value != current[i].second)
      fr.fail("mismatch at '" + key + "': checkpoint has '" + value +
              "', this search has '" + current[i].first + "=" +
              current[i].second +
              "' — restore requires the same problem and configuration");
  }
  fr.expectEnd();

  io::SectionReader rr = r.section("rng");
  io::readRng(rr, rng_);
  rr.expectEnd();

  io::SectionReader sr = r.section("search");
  initialized_ = sr.boolean();
  const std::uint8_t phase = sr.u8();
  if (phase > static_cast<std::uint8_t>(Phase::kDone))
    sr.fail("unknown search phase " + std::to_string(phase));
  phase_ = static_cast<Phase>(phase);
  initK_ = sr.u64();
  haveCenter_ = sr.boolean();
  center_.sizes = sr.vec();
  center_.unit = sr.vec();
  center_.evals = readEvals(sr);
  center_.value = sr.f64();
  tr_ = TrustRegion(config_.explorer.trustRegion);
  tr_.setRadius(sr.f64());
  sinceRestart_ = sr.u64();
  sinceImprovement_ = sr.u64();
  trmSteps_ = sr.u64();
  const std::uint64_t nActiveFlags = sr.u64();
  // A snapshot taken before the first run() has no pool yet (empty flags,
  // initialized_ false) and restores to a fresh search; anything else must
  // match the corner count exactly.
  if (nActiveFlags != problem_.corners.size() &&
      !(nActiveFlags == 0 && !initialized_))
    sr.fail("active-flag count does not match the corner count");
  isActive_.assign(nActiveFlags, 0);
  for (auto& a : isActive_) a = sr.boolean() ? 1 : 0;
  const bool hasMeasDim = sr.boolean();
  const std::uint64_t measDim = sr.u64();
  measDim_ = hasMeasDim ? std::optional<std::size_t>(measDim) : std::nullopt;
  result_ = PvtSearchOutcome{};
  result_.solved = sr.boolean();
  result_.totalSims = sr.u64();
  result_.sizes = sr.vec();
  result_.cornerEvals = readEvals(sr);
  result_.cornersActivated = sr.u64();
  value_.setMarginBonus(sr.f64());
  sr.expectEnd();

  io::SectionReader cr = r.section("corners");
  const std::uint64_t nActive = cr.u64();
  active_.clear();
  const std::size_t dim = problem_.space.dim();
  for (std::uint64_t i = 0; i < nActive; ++i) {
    CornerState cs;
    cs.index = cr.u64();
    if (cs.index >= problem_.corners.size())
      cr.fail("active corner index " + std::to_string(cs.index) +
              " out of range");
    io::readDataset(cr, cs.data);
    if (cr.boolean()) {
      if (!measDim_.has_value())
        cr.fail("corner has a surrogate but no measurement dimension was "
                "recorded");
      cs.surrogate = std::make_unique<SpiceSurrogate>(
          dim, *measDim_, config_.explorer.surrogate,
          config_.seed + 101 * (cs.index + 1));
      io::readSurrogate(cr, *cs.surrogate);
    }
    active_.push_back(std::move(cs));
  }
  cr.expectEnd();

  io::SectionReader er = r.section("engine");
  engine_.restoreState(er);
  er.expectEnd();

  io::SectionReader br = r.section("best");
  result_.bestValue = br.f64();
  result_.bestEval = io::readEvalResult(br);
  br.expectEnd();
}

}  // namespace trdse::core
