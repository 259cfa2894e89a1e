// Orchestration-layer suite: scenario parsing, the sharded cross-job cache,
// engine shared-cache semantics, strategy resumability (step(k);step(n) ==
// step(n)), and the Scheduler determinism contract — per-job outcomes,
// ledgers and cache accounting bitwise identical for any thread count, with
// cross-job shared hits actually occurring.
#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>
#include <tuple>

#include "circuits/registry.hpp"
#include "core/pvt_search.hpp"
#include "eval_stats_eq.hpp"
#include "io/checkpoint.hpp"
#include "opt/random_search.hpp"
#include "opt/strategy.hpp"
#include "opt/tree_bayes_opt.hpp"
#include "orch/journal.hpp"
#include "orch/scenario.hpp"
#include "orch/scheduler.hpp"
#include "rl/rl_strategy.hpp"

namespace trdse::orch {
namespace {

using testing_stats::countersOf;

/// Synthetic 2-D CSP on a deliberately coarse grid (9x9 = 81 distinct
/// points), so concurrent jobs collide on cache keys within a few rounds.
core::SizingProblem tinyGridProblem(double feasibleRadius = 0.08) {
  core::SizingProblem p;
  p.name = "tiny_grid";
  p.space = core::DesignSpace({{"x", 0.0, 1.0, 9, false},
                               {"y", 0.0, 1.0, 9, false}});
  p.measurementNames = {"closeness", "budget"};
  p.specs = {{"closeness", core::SpecKind::kAtLeast, 1.0 - feasibleRadius},
             {"budget", core::SpecKind::kAtMost, 1.6}};
  p.corners = {{sim::ProcessCorner::kTT, 1.0, 27.0}};
  p.evaluate = [](const linalg::Vector& v, const sim::PvtCorner&) {
    core::EvalResult r;
    r.ok = true;
    const double dx = v[0] - 0.66;
    const double dy = v[1] - 0.31;
    r.measurements = {1.0 - std::sqrt(dx * dx + dy * dy), v[0] + v[1]};
    return r;
  };
  return p;
}

/// Register tiny_grid once so scenario *files* can reference it by name.
void ensureTinyGridRegistered() {
  static const bool once = [] {
    circuits::Registry::global().add(
        {"tiny_grid", "bsim45", "coarse synthetic CSP (orch tests)",
         [](const sim::ProcessCard&, std::vector<sim::PvtCorner> corners) {
           // Radius below the closest grid point's distance: no feasible
           // point, so every job runs its whole budget and the cross-job
           // cache sees plenty of revisits.
           core::SizingProblem p = tinyGridProblem(0.05);
           if (!corners.empty()) p.corners = std::move(corners);
           return p;
         }});
    // The same grid with a fused evaluator: rl_policy runs four
    // environments on it, so its slices can end mid-tick.
    circuits::Registry::global().add(
        {"tiny_grid_packed", "bsim45", "tiny_grid, fused (orch tests)",
         [](const sim::ProcessCard&, std::vector<sim::PvtCorner> corners) {
           core::SizingProblem p = tinyGridProblem(0.05);
           p.name = "tiny_grid_packed";
           if (!corners.empty()) p.corners = std::move(corners);
           p.evaluateBatch = [fn = p.evaluate](
                                 const linalg::Vector* const* sizes,
                                 const sim::PvtCorner* cs,
                                 core::EvalResult* results, std::size_t n) {
             for (std::size_t k = 0; k < n; ++k)
               results[k] = fn(*sizes[k], cs[k]);
           };
           return p;
         }});
    return true;
  }();
  (void)once;
}

void expectSameLedger(const pvt::EdaLedger& a, const pvt::EdaLedger& b) {
  ASSERT_EQ(a.totalBlocks(), b.totalBlocks());
  for (std::size_t i = 0; i < a.blocks().size(); ++i) {
    EXPECT_EQ(a.blocks()[i].cornerIndex, b.blocks()[i].cornerIndex);
    EXPECT_EQ(a.blocks()[i].kind, b.blocks()[i].kind);
    EXPECT_EQ(a.blocks()[i].meetsSpec, b.blocks()[i].meetsSpec);
    EXPECT_EQ(a.blocks()[i].cached, b.blocks()[i].cached);
    EXPECT_EQ(a.blocks()[i].failed, b.blocks()[i].failed);
    EXPECT_EQ(a.blocks()[i].retries, b.blocks()[i].retries);
    EXPECT_EQ(a.blocks()[i].backoff, b.blocks()[i].backoff);
  }
}

void expectSameOutcome(const opt::StrategyOutcome& a,
                       const opt::StrategyOutcome& b) {
  EXPECT_EQ(a.solved, b.solved);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.sizes, b.sizes);
  EXPECT_EQ(a.bestValue, b.bestValue);
  EXPECT_EQ(a.bestMeasurements, b.bestMeasurements);
  EXPECT_EQ(countersOf(a.evalStats), countersOf(b.evalStats));
  expectSameLedger(a.ledger, b.ledger);
}

// ---- Scenario parsing ----------------------------------------------------

TEST(Scenario, ParsesGlobalsJobsAndOptions) {
  const Scenario sc = parseScenarioText(
      "# comment\n"
      "name = demo\n"
      "threads = 4\n"
      "slice = 8\n"
      "shared_cache = off\n"
      "shards = 4\n"
      "base_seed = 7\n"
      "[job]\n"
      "name = a\n"
      "circuit = two_stage_opamp\n"
      "strategy = tree_bayes_opt\n"
      "seed = 3\n"
      "budget = 99   # trailing comment\n"
      "opt.init_samples = 4\n"
      "[job]\n"
      "circuit = ldo\n"
      "strategy = random_search\n"
      "budget = 10\n",
      "inline");
  EXPECT_EQ(sc.name, "demo");
  EXPECT_EQ(sc.threads, 4u);
  EXPECT_EQ(sc.slice, 8u);
  EXPECT_FALSE(sc.sharedCache);
  EXPECT_EQ(sc.cacheShards, 4u);
  EXPECT_EQ(sc.baseSeed, 7u);
  ASSERT_EQ(sc.jobs.size(), 2u);
  EXPECT_EQ(sc.jobs[0].name, "a");
  EXPECT_EQ(sc.jobs[0].seed, 3u);
  EXPECT_EQ(sc.jobs[0].budget, 99u);
  EXPECT_EQ(sc.jobs[0].options.at("init_samples"), "4");
  EXPECT_EQ(sc.jobs[1].name, "job2");  // auto-named
  EXPECT_EQ(sc.jobs[1].seed, 0u);      // derived later by the scheduler
}

TEST(Scenario, RejectsMalformedInput) {
  EXPECT_THROW(parseScenarioText("nonsense\n[job]\n", "x"),
               std::invalid_argument);
  EXPECT_THROW(parseScenarioText("threads = soon\n", "x"),
               std::invalid_argument);
  EXPECT_THROW(parseScenarioText("[job]\nbudget = 5\n", "x"),
               std::invalid_argument);  // no circuit/strategy
  EXPECT_THROW(parseScenarioText(
                   "[job]\ncircuit = c\nstrategy = s\nbudget = 0\n", "x"),
               std::invalid_argument);  // zero budget
  EXPECT_THROW(
      parseScenarioText("[job]\nname = a\ncircuit = c\nstrategy = s\n"
                        "[job]\nname = a\ncircuit = c\nstrategy = s\n",
                        "x"),
      std::invalid_argument);  // duplicate names
  EXPECT_THROW(parseScenarioText("", "x"), std::invalid_argument);  // no jobs
  // The retired snapshot keys are unknown keys like any other: the journal
  // is the one snapshot, written at every round barrier.
  const std::string job = "[job]\ncircuit = c\nstrategy = s\n";
  for (const auto& [text, key, line] :
       {std::make_tuple(job + "checkpoint_every = 2\n",
                        std::string("checkpoint_every"), 4),
        std::make_tuple(job + "checkpoint_path = snap.ckpt\n",
                        std::string("checkpoint_path"), 4),
        std::make_tuple("slice = 4\njournal_every = 1\n" + job,
                        std::string("journal_every"), 2)}) {
    try {
      parseScenarioText(text, "retired.scenario");
      ADD_FAILURE() << key << " accepted";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("retired.scenario:" + std::to_string(line) + ": "),
                std::string::npos)
          << what;
      EXPECT_NE(what.find("unknown"), std::string::npos) << what;
      EXPECT_NE(what.find("\"" + key + "\""), std::string::npos) << what;
    }
  }
  EXPECT_THROW(parseScenarioText("threads = 2\nthreads = 4\n", "x"),
               std::invalid_argument);  // duplicate scalar key
  EXPECT_THROW(parseScenarioText("[job]\ncircuit = c\nstrategy = s\n"
                                 "budget = 400\nbudget = 40\n",
                                 "x"),
               std::invalid_argument);  // duplicate job key (no last-wins)
  EXPECT_THROW(parseScenarioText("[job]\ncircuit = c\nstrategy = s\n"
                                 "seed = -1\n",
                                 "x"),
               std::invalid_argument);  // stoull wrap rejected
}

// ---- SharedEvalCache -----------------------------------------------------

TEST(SharedEvalCache, ScopedFindInsertAndCounters) {
  eval::SharedEvalCache cache(5);            // rounds up
  EXPECT_EQ(cache.shardCount(), 8u);         // power of two
  const std::size_t opamp = cache.scopeId("opamp");
  const std::size_t ldo = cache.scopeId("ldo");
  EXPECT_EQ(cache.scopeId("opamp"), opamp);  // stable
  EXPECT_NE(opamp, ldo);

  core::EvalResult r;
  r.ok = true;
  r.measurements = {1.0, 2.0};
  const eval::EvalKey key{{3, 4}, 0};
  cache.insert(opamp, key, r);
  EXPECT_EQ(cache.size(), 1u);

  core::EvalResult out;
  EXPECT_TRUE(cache.find(opamp, key, out));
  EXPECT_EQ(out.measurements, r.measurements);
  EXPECT_FALSE(cache.find(ldo, key, out));       // scope isolation
  EXPECT_FALSE(cache.find(opamp, {{3, 5}, 0}, out));

  const auto t = cache.totals();
  EXPECT_EQ(t.hits, 1u);
  EXPECT_EQ(t.misses, 2u);
  EXPECT_EQ(t.inserts, 1u);
  EXPECT_EQ(t.entries, 1u);
}

TEST(SharedEvalCache, SpreadsEntriesAcrossShards) {
  eval::SharedEvalCache cache(8);
  const std::size_t scope = cache.scopeId("s");
  core::EvalResult r;
  r.ok = true;
  r.measurements = {0.0};
  for (std::size_t i = 0; i < 64; ++i) cache.insert(scope, {{i, i + 1}, 0}, r);
  std::size_t populated = 0;
  for (std::size_t s = 0; s < cache.shardCount(); ++s)
    populated += cache.shardStats(s).entries > 0;
  EXPECT_GT(populated, cache.shardCount() / 2);  // striping actually stripes
}

// ---- EvalEngine + shared cache ------------------------------------------

/// The scheduler barrier's publish step for one engine: drain its journal
/// and insert the entries under `scope`. Returns the entries published.
std::size_t publish(eval::EvalEngine& engine, eval::SharedEvalCache& shared,
                    const std::string& scope) {
  const std::vector<eval::PublishEntry> entries = engine.drainPublishJournal();
  const std::size_t id = shared.scopeId(scope);
  for (const eval::PublishEntry& e : entries)
    shared.insert(id, e.key, e.result);
  return entries.size();
}

TEST(EngineSharedCache, HitsOnlyAfterPublishAndOnlySameScope) {
  const core::SizingProblem problem = tinyGridProblem();
  auto shared = std::make_shared<eval::SharedEvalCache>(4);

  eval::EvalEngine a(problem);
  eval::EvalEngine b(problem);
  eval::EvalEngine c(problem);
  a.attachSharedCache(shared, "tiny_grid");
  b.attachSharedCache(shared, "tiny_grid");
  c.attachSharedCache(shared, "other_scope");

  const linalg::Vector x = problem.space.snap({0.5, 0.5});
  a.evalOne(0, x, pvt::BlockKind::kSearch);
  EXPECT_EQ(a.stats().simulated, 1u);

  // Not published yet: B simulates the same point itself.
  b.evalOne(0, x, pvt::BlockKind::kSearch);
  EXPECT_EQ(b.stats().simulated, 1u);
  EXPECT_EQ(b.stats().sharedHits, 0u);

  EXPECT_EQ(publish(a, *shared, "tiny_grid"), 1u);
  EXPECT_EQ(publish(a, *shared, "tiny_grid"), 0u);  // journal drained

  const linalg::Vector y = problem.space.snap({0.75, 0.25});
  a.evalOne(0, y, pvt::BlockKind::kSearch);
  EXPECT_EQ(publish(a, *shared, "tiny_grid"), 1u);

  // Published now: B serves y from the shared cache at zero EDA cost, and
  // the ledger block is flagged cached.
  const core::EvalResult viaShared = b.evalOne(0, y, pvt::BlockKind::kSearch);
  EXPECT_EQ(b.stats().simulated, 1u);
  EXPECT_EQ(b.stats().sharedHits, 1u);
  EXPECT_TRUE(b.ledger().blocks().back().cached);
  EXPECT_EQ(viaShared.measurements, a.evalOne(0, y, pvt::BlockKind::kSearch).measurements);
  // A repeat lands in B's local memo, not the shared counter.
  b.evalOne(0, y, pvt::BlockKind::kSearch);
  EXPECT_EQ(b.stats().sharedHits, 1u);
  EXPECT_EQ(b.stats().cacheHits, 1u);

  // Scope isolation: same key, different namespace — simulates.
  c.evalOne(0, y, pvt::BlockKind::kSearch);
  EXPECT_EQ(c.stats().simulated, 1u);
  EXPECT_EQ(c.stats().sharedHits, 0u);
}

TEST(EngineSharedCache, AttachRulesAreEnforced) {
  const core::SizingProblem problem = tinyGridProblem();
  auto shared = std::make_shared<eval::SharedEvalCache>(2);

  eval::EvalEngineConfig noCache;
  noCache.cacheEvals = false;
  eval::EvalEngine uncached(problem, noCache);
  EXPECT_THROW(uncached.attachSharedCache(shared, "s"), std::logic_error);

  eval::EvalEngine late(problem);
  late.evalOne(0, problem.space.snap({0.5, 0.5}), pvt::BlockKind::kSearch);
  EXPECT_THROW(late.attachSharedCache(shared, "s"), std::logic_error);
}

// ---- Strategy resumability ----------------------------------------------

TEST(StrategyResume, RandomSearchSlicedEqualsSingleShot) {
  core::SizingProblem prob = tinyGridProblem(0.02);  // hard: runs full budget
  prob.corners = {{sim::ProcessCorner::kTT, 1.0, 27.0},
                  {sim::ProcessCorner::kSS, 0.9, 125.0},
                  {sim::ProcessCorner::kFF, 1.1, -40.0}};
  opt::RandomSearch whole(prob, 11, 100);
  whole.run();

  opt::RandomSearch sliced(prob, 11, 100);
  // 7-block slices deliberately misaligned with the 3-corner sweeps, so
  // pauses land mid-sweep.
  for (std::size_t target = 7; !sliced.finished(); target += 7)
    sliced.step(target);
  expectSameOutcome(sliced.outcome(), whole.outcome());
}

TEST(StrategyResume, TreeBayesOptSlicedEqualsSingleShot) {
  const core::SizingProblem prob = tinyGridProblem(0.02);
  opt::TreeBayesOptConfig cfg;
  cfg.seed = 23;
  cfg.initSamples = 6;
  cfg.candidatePool = 40;
  opt::TreeBayesOpt whole(prob, cfg, 120);
  whole.run();
  ASSERT_EQ(whole.outcome().iterations, whole.outcome().ledger.totalBlocks());

  opt::TreeBayesOpt sliced(prob, cfg, 120);
  for (std::size_t target = 5; !sliced.finished(); target += 5)
    sliced.step(target);
  expectSameOutcome(sliced.outcome(), whole.outcome());
}

TEST(StrategyResume, RlPolicySlicedEqualsSingleShot) {
  // One environment, and four sharing each lane pass (a fused evaluator).
  // Slices of 13 cut the four-environment ticks, and the budget of 81 is
  // not a multiple of four.
  for (const bool packed : {false, true}) {
    for (const double radius : {0.3, 0.05}) {  // solves / never solves
      core::SizingProblem prob = tinyGridProblem(radius);
      if (packed)
        prob.evaluateBatch = [fn = prob.evaluate](
                                 const linalg::Vector* const* sizes,
                                 const sim::PvtCorner* corners,
                                 core::EvalResult* results, std::size_t n) {
          for (std::size_t i = 0; i < n; ++i)
            results[i] = fn(*sizes[i], corners[i]);
        };
      rl::RlPolicyConfig cfg;
      cfg.a2c.hidden = 8;
      cfg.a2c.nSteps = 8;
      cfg.a2c.env.episodeLength = 10;

      rl::RlPolicyStrategy whole(prob, cfg, 91, 81);
      whole.run();
      EXPECT_EQ(whole.outcome().solved, radius > 0.1);
      rl::RlPolicyStrategy sliced(prob, cfg, 91, 81);
      for (std::size_t target = 13; !sliced.finished(); target += 13)
        sliced.step(target);
      SCOPED_TRACE(std::string(packed ? "four" : "one") + " env(s), radius " +
                   std::to_string(radius));
      expectSameOutcome(sliced.outcome(), whole.outcome());
      EXPECT_EQ(whole.outcome().iterations,
                whole.outcome().ledger.totalBlocks());
    }
  }
}

TEST(Strategy, PvtWrapperMatchesDirectSearch) {
  const core::SizingProblem prob = tinyGridProblem(0.25);
  auto strat = opt::makeStrategy("pvt_search", prob, 5, 200);
  const opt::StrategyOutcome& viaStrategy = strat->run();

  core::PvtSearchConfig cfg;
  cfg.seed = 5;
  core::PvtSearch direct(prob, cfg);
  const core::PvtSearchOutcome viaDirect = direct.run(200);

  EXPECT_EQ(viaStrategy.solved, viaDirect.solved);
  EXPECT_EQ(viaStrategy.iterations, viaDirect.totalSims);
  EXPECT_EQ(viaStrategy.sizes, viaDirect.sizes);
  expectSameLedger(viaStrategy.ledger, viaDirect.ledger);
  if (viaStrategy.solved) {
    EXPECT_EQ(viaStrategy.bestValue, 0.0);
  }
}

TEST(Strategy, FactoryRejectsUnknownNamesAndOptions) {
  const core::SizingProblem prob = tinyGridProblem();
  EXPECT_THROW(opt::makeStrategy("annealing", prob, 1, 10),
               std::invalid_argument);
  EXPECT_THROW(
      opt::makeStrategy("tree_bayes_opt", prob, 1, 10, {{"kappa", "2"}}),
      std::invalid_argument);
  EXPECT_THROW(
      opt::makeStrategy("tree_bayes_opt", prob, 1, 10, {{"kappa_start", "x"}}),
      std::invalid_argument);
  EXPECT_THROW(opt::makeStrategy("random_search", prob, 1, 10, {{"a", "b"}}),
               std::invalid_argument);
  EXPECT_THROW(opt::makeStrategy("pvt_search", prob, 1, 10,
                                 {{"pool", "sideways"}}),
               std::invalid_argument);
  // Non-finite or out-of-range numeric options: a NaN kappa makes every
  // acquisition compare false (the search stops after its init samples), a
  // NaN local_fraction reaches a float-to-size_t cast, and with no init
  // sample the forest fits on nothing and the search stops at once.
  const std::pair<const char*, const char*> badBo[] = {
      {"kappa_start", "nan"},    {"kappa_start", "inf"},
      {"kappa_end", "-inf"},     {"kappa_end", "nan"},
      {"local_fraction", "nan"}, {"local_fraction", "-0.1"},
      {"local_fraction", "1.5"}, {"local_sigma", "nan"},
      {"local_sigma", "inf"},    {"local_sigma", "0"},
      {"local_sigma", "-0.1"},   {"init_samples", "0"},
      {"candidate_pool", "0"}};
  for (const auto& [key, value] : badBo)
    EXPECT_THROW(opt::makeStrategy("tree_bayes_opt", prob, 1, 10,
                                   {{key, value}}),
                 std::invalid_argument)
        << key << " = " << value;
  // With no init sample a pvt_search episode never evaluates anything (the
  // search never ends), and with no MC candidate it never takes a TRM step.
  for (const char* key : {"init_samples", "mc_samples"})
    EXPECT_THROW(opt::makeStrategy("pvt_search", prob, 1, 10, {{key, "0"}}),
                 std::invalid_argument)
        << key << " = 0";
  for (const char* key : {"learning_rate", "entropy_coeff"})
    for (const char* value : {"nan", "inf", "-inf"})
      EXPECT_THROW(opt::makeStrategy("rl_policy", prob, 1, 10, {{key, value}}),
                   std::invalid_argument)
          << key << " = " << value;
  // The range ends and ordinary values still parse.
  EXPECT_NO_THROW(opt::makeStrategy("tree_bayes_opt", prob, 1, 10,
                                    {{"local_fraction", "0"},
                                     {"local_sigma", "0.01"},
                                     {"kappa_start", "-1"},
                                     {"kappa_end", "0"}}));
  EXPECT_NO_THROW(opt::makeStrategy("tree_bayes_opt", prob, 1, 10,
                                    {{"local_fraction", "1"}}));
  EXPECT_NO_THROW(opt::makeStrategy("rl_policy", prob, 1, 10,
                                    {{"learning_rate", "0.001"},
                                     {"entropy_coeff", "0"}}));
}

TEST(Strategy, RandomSearchCheckpointRoundTrip) {
  core::SizingProblem prob = tinyGridProblem(0.02);
  prob.corners = {{sim::ProcessCorner::kTT, 1.0, 27.0},
                  {sim::ProcessCorner::kSS, 0.9, 125.0}};
  opt::RandomSearch whole(prob, 7, 90);
  whole.run();

  opt::RandomSearch saver(prob, 7, 90);
  saver.step(41);  // pauses mid-sweep for odd targets
  const std::string path = testing::TempDir() + "rs_orch.ckpt";
  io::writeFileAtomic(path, saver.saveCheckpointBlob());

  opt::RandomSearch resumed(prob, 999, 90);  // wrong seed: state comes from disk
  resumed.restoreCheckpointBlob(io::readFileBytes(path), path);
  resumed.run();
  expectSameOutcome(resumed.outcome(), whole.outcome());

  // Kind mismatch fails loudly.
  io::CheckpointWriter wrongKind("pvt-search");
  EXPECT_THROW(resumed.restoreCheckpointBlob(wrongKind.finish(), "wrong-kind"),
               io::CheckpointError);
  std::remove(path.c_str());
}

TEST(Strategy, RandomSearchKeepsItsBudgetOnRestore) {
  // Radius 0.05 has no feasible grid point, so every search runs its whole
  // budget. A blob taken at budget 90 is rejected by a search built with 50,
  // naming both, and the search stays the fresh one with its own budget.
  const core::SizingProblem prob = tinyGridProblem(0.05);
  opt::RandomSearch saver(prob, 7, 90);
  saver.step(41);
  const std::string blob = saver.saveCheckpointBlob();

  const auto strat = opt::makeStrategy("random_search", prob, 7, 50);
  try {
    strat->restoreCheckpointBlob(blob, "budget-90");
    ADD_FAILURE() << "a budget-90 blob restored into a budget-50 search";
  } catch (const io::CheckpointError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("budget 90"), std::string::npos) << what;
    EXPECT_NE(what.find("budget 50"), std::string::npos) << what;
  }
  EXPECT_EQ(strat->budget(), 50u);
  strat->run();
  EXPECT_EQ(strat->outcome().evalStats.requests, 50u);

  const auto fresh = opt::makeStrategy("random_search", prob, 7, 50);
  fresh->run();
  expectSameOutcome(strat->outcome(), fresh->outcome());
}

// ---- Scheduler -----------------------------------------------------------

/// The acceptance scenario: 4 jobs on one coarse circuit so cross-job cache
/// hits are plentiful, mixed strategies, written to a real file.
std::string writeAcceptanceScenario() {
  ensureTinyGridRegistered();
  const std::string path = testing::TempDir() + "orch_accept.scenario";
  std::ofstream out(path);
  out << "name = accept\n"
         "slice = 12\n"
         "shards = 8\n"
         "base_seed = 5\n"
         "[job]\nname = rs_a\ncircuit = tiny_grid\nstrategy = random_search\n"
         "seed = 101\nbudget = 70\n"
         "[job]\nname = rs_b\ncircuit = tiny_grid\nstrategy = random_search\n"
         "seed = 202\nbudget = 70\n"
         "[job]\nname = bo\ncircuit = tiny_grid\nstrategy = tree_bayes_opt\n"
         "seed = 7\nbudget = 70\nopt.init_samples = 8\nopt.candidate_pool = 30\n"
         "[job]\nname = rl\ncircuit = tiny_grid\nstrategy = rl_policy\n"
         "seed = 11\nbudget = 70\nopt.hidden = 8\nopt.n_steps = 8\n";
  return path;
}

TEST(Scheduler, FourJobScenarioIsThreadCountInvariantWithSharedHits) {
  const std::string path = writeAcceptanceScenario();

  std::vector<std::vector<JobResult>> runs;
  for (const std::size_t threads : {1u, 2u, 4u}) {
    Scenario sc = loadScenarioFile(path);
    sc.threads = threads;
    Scheduler scheduler(std::move(sc));
    runs.push_back(scheduler.run());
    // The cross-job cache is actually used: every job reports shared hits.
    for (const JobResult& r : runs.back()) {
      EXPECT_GT(r.outcome.evalStats.sharedHits, 0u)
          << r.name << " at threads=" << threads;
      EXPECT_GT(r.published, 0u) << r.name;
      // Budget never exceeded; accounting is consistent.
      EXPECT_LE(r.outcome.iterations, r.budget);
      EXPECT_EQ(r.outcome.iterations, r.outcome.ledger.totalBlocks());
      EXPECT_EQ(r.outcome.evalStats.requests, r.outcome.iterations);
    }
  }
  for (std::size_t run = 1; run < runs.size(); ++run) {
    ASSERT_EQ(runs[run].size(), runs[0].size());
    for (std::size_t j = 0; j < runs[0].size(); ++j) {
      EXPECT_EQ(runs[run][j].rounds, runs[0][j].rounds);
      EXPECT_EQ(runs[run][j].published, runs[0][j].published);
      expectSameOutcome(runs[run][j].outcome, runs[0][j].outcome);
    }
  }
  std::remove(path.c_str());
}

TEST(Scheduler, SharedCacheSavesSimulationsVersusPrivate) {
  ensureTinyGridRegistered();
  const auto makeScenario = [](bool shared) {
    Scenario sc;
    sc.name = "ab";
    sc.slice = 10;
    sc.sharedCache = shared;
    for (int j = 0; j < 3; ++j) {
      JobSpec spec;
      spec.name = "rs" + std::to_string(j);
      spec.circuit = "tiny_grid";
      spec.strategy = "random_search";
      spec.seed = 40 + static_cast<std::uint64_t>(j);
      spec.budget = 60;
      sc.jobs.push_back(spec);
    }
    return sc;
  };

  Scheduler withShared(makeScenario(true));
  Scheduler withPrivate(makeScenario(false));
  const auto sharedResults = withShared.run();
  const auto privateResults = withPrivate.run();
  ASSERT_NE(withShared.sharedCache(), nullptr);
  EXPECT_EQ(withPrivate.sharedCache(), nullptr);

  std::size_t sharedSims = 0;
  std::size_t privateSims = 0;
  std::size_t sharedHits = 0;
  for (std::size_t j = 0; j < sharedResults.size(); ++j) {
    // The logical trajectory of every job is untouched by sharing.
    EXPECT_EQ(sharedResults[j].outcome.iterations,
              privateResults[j].outcome.iterations);
    EXPECT_EQ(sharedResults[j].outcome.solved, privateResults[j].outcome.solved);
    EXPECT_EQ(sharedResults[j].outcome.sizes, privateResults[j].outcome.sizes);
    sharedSims += sharedResults[j].outcome.evalStats.simulated;
    privateSims += privateResults[j].outcome.evalStats.simulated;
    sharedHits += sharedResults[j].outcome.evalStats.sharedHits;
  }
  EXPECT_GT(sharedHits, 0u);
  EXPECT_EQ(privateSims, sharedSims + sharedHits);  // blocks actually saved
  // Entries are distinct keys; concurrent same-round duplicates collapse.
  const std::size_t entries = withShared.sharedCache()->totals().entries;
  EXPECT_GT(entries, 0u);
  EXPECT_LE(entries, sharedSims);
}

/// Each job's blob in a journal is a checkpoint loadable on its own: stop a
/// journaled run after round k, restore every blob into a strategy built by
/// opt::makeStrategy with the job's resolved seed and budget, and step it to
/// its budget — its row equals the uninterrupted scheduler's.
TEST(Scheduler, JournalBlobsRestoreAsStandaloneStrategies) {
  ensureTinyGridRegistered();
  const auto scenario = [](const std::string& journal) {
    // No shared cache: a standalone strategy has none to hit.
    Scenario sc = parseScenarioText(
        "name = standalone_blobs\n"
        "slice = 10\n"
        "shared_cache = off\n"
        "[job]\nname = rs\ncircuit = tiny_grid\nstrategy = random_search\n"
        "budget = 70\n"
        "[job]\nname = pvt\ncircuit = tiny_grid\nstrategy = pvt_search\n"
        "budget = 60\nopt.init_samples = 6\n"
        "[job]\nname = rl\ncircuit = tiny_grid_packed\n"
        "strategy = rl_policy\nbudget = 70\nopt.hidden = 8\n"
        "opt.n_steps = 8\nopt.episode_length = 10\n",
        "inline");
    sc.journalPath = journal;
    return sc;
  };
  const std::string whole = testing::TempDir() + "orch_blobs_whole.tdck";
  Scheduler wholeSched(scenario(whole));
  const std::vector<JobResult> expected = wholeSched.run();
  ASSERT_EQ(expected.size(), 3u);
  ASSERT_GE(expected[0].rounds, 4u);

  const std::string journal = testing::TempDir() + "orch_blobs.tdck";
  for (const std::size_t k : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    SCOPED_TRACE("stopped after round " + std::to_string(k));
    Scheduler first(scenario(journal));
    first.run(k);
    ASSERT_FALSE(first.completed());
    const Scenario& scheduled = first.scenario();  // seeds resolved
    const JournalState state = readJournal(journal, scheduled, nullptr);
    EXPECT_EQ(state.round, k);
    ASSERT_EQ(state.jobs.size(), scheduled.jobs.size());
    for (std::size_t j = 0; j < scheduled.jobs.size(); ++j) {
      const JobSpec& spec = scheduled.jobs[j];
      SCOPED_TRACE(spec.name);
      const std::unique_ptr<opt::Strategy> strategy = opt::makeStrategy(
          spec.strategy, circuits::Registry::global().makeProblem(spec.circuit),
          spec.seed, spec.budget, spec.options);
      strategy->restoreCheckpointBlob(state.jobs[j].strategyBlob,
                                      journal + "[job " + spec.name + "]");
      strategy->run();
      EXPECT_TRUE(strategy->finished());
      EXPECT_EQ(expected[j].seed, spec.seed);
      expectSameOutcome(strategy->outcome(), expected[j].outcome);
    }
  }
  std::remove(journal.c_str());
  std::remove(whole.c_str());

  // A strategy that cannot checkpoint refuses a journal, whether the
  // scenario names one or it is enabled after construction.
  Scenario bo;
  bo.jobs.push_back(JobSpec{});
  bo.jobs[0].name = "bo";
  bo.jobs[0].circuit = "tiny_grid";
  bo.jobs[0].strategy = "tree_bayes_opt";
  bo.jobs[0].budget = 20;
  Scheduler unjournaled(bo);
  EXPECT_THROW(unjournaled.enableJournal(journal), std::invalid_argument);
  bo.journalPath = journal;
  EXPECT_THROW(Scheduler{std::move(bo)}, std::invalid_argument);
}

/// Whatever a job's problem factory throws, the error names the scenario
/// line and the job.
TEST(Scheduler, BuildErrorsNameTheJob) {
  Scenario sc = parseScenarioText(
      "name = broken\n[job]\nname = ok\ncircuit = tiny_grid\n"
      "strategy = random_search\nbudget = 8\n"
      "[job]\nname = flaky\ncircuit = flaky_netlist\n"
      "strategy = random_search\nbudget = 8\n",
      "broken.scenario");
  ensureTinyGridRegistered();
  sc.jobs[1].makeProblem = []() -> core::SizingProblem {
    throw std::runtime_error("flaky_netlist: netlist unavailable");
  };
  try {
    Scheduler scheduler(std::move(sc));
    ADD_FAILURE() << "a job that failed to build was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()),
              "scenario broken.scenario:7: job \"flaky\": flaky_netlist: "
              "netlist unavailable");
  }
}

/// A tree_bayes_opt job with no init samples is refused when the scenario is
/// built, naming the job's line, rather than run as a search that stops
/// before its first acquisition; the strategy refuses it on its own too.
TEST(Scheduler, RejectsTreeBayesOptWithoutInitSamples) {
  ensureTinyGridRegistered();
  Scenario sc = parseScenarioText(
      "name = bo\n[job]\nname = ok\ncircuit = tiny_grid\n"
      "strategy = tree_bayes_opt\nbudget = 20\n"
      "[job]\nname = empty\ncircuit = tiny_grid\n"
      "strategy = tree_bayes_opt\nbudget = 20\nopt.init_samples = 0\n",
      "bo.scenario");
  try {
    Scheduler scheduler(std::move(sc));
    ADD_FAILURE() << "opt.init_samples = 0 was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()),
              "scenario bo.scenario:7: job \"empty\": strategy option "
              "\"init_samples\": expected a count >= 1, got \"0\"");
  }
  opt::TreeBayesOptConfig cfg;
  cfg.initSamples = 0;
  EXPECT_THROW(opt::TreeBayesOpt(tinyGridProblem(), cfg, 20),
               std::invalid_argument);
}

/// A job whose strategy option is a zero count is refused when the scenario
/// is built, naming the job's line, and the strategy's constructor refuses
/// the same config on its own. At `opt.init_samples = 0` a pvt_search would
/// never end (no episode spends budget), at `opt.mc_samples = 0` it would
/// never take a TRM step, and at `opt.candidate_pool = 0` a tree_bayes_opt
/// stops at its first acquisition.
void expectZeroCountRejected(const std::string& strategy, const std::string& key) {
  ensureTinyGridRegistered();
  Scenario sc = parseScenarioText(
      "name = zero\n[job]\nname = ok\ncircuit = tiny_grid\nstrategy = " +
          strategy + "\nbudget = 20\n[job]\nname = empty\ncircuit = tiny_grid\n"
          "strategy = " + strategy + "\nbudget = 20\nopt." + key + " = 0\n",
      "zero.scenario");
  try {
    Scheduler scheduler(std::move(sc));
    ADD_FAILURE() << "opt." << key << " = 0 was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()),
              "scenario zero.scenario:7: job \"empty\": strategy option \"" +
                  key + "\": expected a count >= 1, got \"0\"");
  }
}

TEST(Scheduler, RejectsPvtSearchWithoutInitSamples) {
  expectZeroCountRejected("pvt_search", "init_samples");
  core::PvtSearchConfig cfg;
  cfg.explorer.initSamples = 0;
  EXPECT_THROW(core::PvtSearch(tinyGridProblem(), cfg), std::invalid_argument);
}

TEST(Scheduler, RejectsPvtSearchWithoutMcSamples) {
  expectZeroCountRejected("pvt_search", "mc_samples");
  core::PvtSearchConfig cfg;
  cfg.explorer.mcSamples = 0;
  EXPECT_THROW(core::PvtSearch(tinyGridProblem(), cfg), std::invalid_argument);
}

TEST(Scheduler, RejectsTreeBayesOptWithoutCandidatePool) {
  expectZeroCountRejected("tree_bayes_opt", "candidate_pool");
  opt::TreeBayesOptConfig cfg;
  cfg.candidatePool = 0;
  EXPECT_THROW(opt::TreeBayesOpt(tinyGridProblem(), cfg, 20),
               std::invalid_argument);
}

TEST(Scheduler, DerivesDistinctSeedsAndRunsOnce) {
  ensureTinyGridRegistered();
  Scenario sc;
  for (int j = 0; j < 2; ++j) {
    JobSpec spec;
    spec.name = "rs" + std::to_string(j);
    spec.circuit = "tiny_grid";
    spec.strategy = "random_search";
    spec.budget = 20;
    sc.jobs.push_back(spec);
  }
  Scheduler scheduler(std::move(sc));
  const auto results = scheduler.run();
  EXPECT_NE(results[0].seed, 0u);
  EXPECT_NE(results[0].seed, results[1].seed);
  EXPECT_THROW(scheduler.run(), std::logic_error);
}

// ---- Fault tolerance: scenario knobs, quarantine, crash recovery ---------

TEST(Scenario, ParsesFaultRetryAndJournalKeys) {
  const Scenario sc = parseScenarioText(
      "fault_seed = 9\n"
      "fault_timeout = 0.05\n"
      "fault_nonconv = 0.25\n"
      "fault_nonfinite = 0.1\n"
      "fault_timeout_stall = 0.5\n"
      "retry_attempts = 4\n"
      "retry_backoff = 2\n"
      "retry_backoff_cap = 16\n"
      "retry_timeout = 1.5\n"
      "journal = /tmp/j.tdck\n"
      "[job]\n"
      "circuit = ldo\n"
      "strategy = random_search\n"
      "budget = 10\n"
      "max_failures = 7\n",
      "inline");
  EXPECT_EQ(sc.faultPlan.seed, 9u);
  EXPECT_EQ(sc.faultPlan.timeoutRate, 0.05);
  EXPECT_EQ(sc.faultPlan.nonConvergenceRate, 0.25);
  EXPECT_EQ(sc.faultPlan.nonFiniteRate, 0.1);
  EXPECT_EQ(sc.faultPlan.timeoutStallSeconds, 0.5);
  EXPECT_EQ(sc.retry.maxAttempts, 4u);
  EXPECT_EQ(sc.retry.backoffBase, 2u);
  EXPECT_EQ(sc.retry.backoffCap, 16u);
  EXPECT_EQ(sc.retry.timeoutSeconds, 1.5);
  EXPECT_EQ(sc.journalPath, "/tmp/j.tdck");
  ASSERT_EQ(sc.jobs.size(), 1u);
  EXPECT_EQ(sc.jobs[0].maxFailures, 7u);
  EXPECT_NE(sc.jobs[0].sourceLine, 0u);
}

TEST(Scenario, RejectsInvalidFaultAndRetryConfigs) {
  const std::string tail =
      "[job]\ncircuit = ldo\nstrategy = random_search\nbudget = 10\n";
  // Rates summing past 1 are caught at parse time via FaultPlan validation.
  EXPECT_THROW(parseScenarioText(
                   "fault_timeout = 0.6\nfault_nonconv = 0.6\n" + tail, "x"),
               std::invalid_argument);
  EXPECT_THROW(parseScenarioText("fault_nonconv = -0.1\n" + tail, "x"),
               std::invalid_argument);
  EXPECT_THROW(parseScenarioText("retry_attempts = 0\n" + tail, "x"),
               std::invalid_argument);
  EXPECT_EQ(parseScenarioText("retry_attempts = " +
                                  std::to_string(kMaxRetryAttempts) + "\n" +
                                  tail,
                              "x")
                .retry.maxAttempts,
            kMaxRetryAttempts);
  try {
    parseScenarioText("slice = 4\nretry_attempts = " +
                          std::to_string(kMaxRetryAttempts + 1) + "\n" + tail,
                      "many.scenario");
    ADD_FAILURE() << "retry_attempts past the bound accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("many.scenario:2"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("retry_attempts"), std::string::npos);
  }
  EXPECT_THROW(parseScenarioText("retry_timeout = -1\n" + tail, "x"),
               std::invalid_argument);
  // Non-finite deadlines: NaN compares false against every deadline (and a
  // NaN journal fingerprint never matches itself on --resume).
  for (const char* bad : {"nan", "-nan", "inf", "-inf", "1e999"}) {
    try {
      parseScenarioText("slice = 4\nretry_timeout = " + std::string(bad) +
                            "\n" + tail,
                        "bad.scenario");
      ADD_FAILURE() << "retry_timeout = " << bad << " accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("bad.scenario:2"),
                std::string::npos)
          << e.what();
      EXPECT_NE(std::string(e.what()).find("retry_timeout"),
                std::string::npos);
    }
  }
  EXPECT_EQ(parseScenarioText("retry_timeout = 1e300\n" + tail, "x")
                .retry.timeoutSeconds,
            1e300);  // finite: a deadline that never fires
  EXPECT_THROW(parseScenarioText("max_failures = 3\n" + tail, "x"),
               std::invalid_argument);  // global scope: job key
}

// ---- Scenario parser fuzz ---------------------------------------------------
//
// Every prefix of the committed CI scenarios, and a deterministic set of
// single-byte mutations of them, either parses or throws
// std::invalid_argument pointing at a line: "scenario <source>:<line>: ...".
// No other exception type, and no crash (the suite also runs under ASan).

std::string readCommittedScenario(const std::string& name) {
  const std::string path = std::string(TRDSE_SOURCE_DIR) + "/scenarios/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in), {});
}

/// How one fuzzed input fared: parsed, or rejected with a located
/// invalid_argument; `error` describes any other outcome.
struct FuzzOutcome {
  bool parsed = false;
  std::string error;
};

FuzzOutcome parseFuzzed(const std::string& text) {
  const std::string prefix = "scenario fuzz:";
  FuzzOutcome out;
  try {
    (void)parseScenarioText(text, "fuzz");
    out.parsed = true;
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    std::size_t i = prefix.size();
    while (i < msg.size() && std::isdigit(static_cast<unsigned char>(msg[i])))
      ++i;
    if (msg.compare(0, prefix.size(), prefix) != 0 || i == prefix.size() ||
        i >= msg.size() || msg[i] != ':')
      out.error = "unlocated error: " + msg;
  } catch (const std::exception& e) {
    out.error = std::string("unexpected exception: ") + e.what();
  } catch (...) {
    out.error = "unexpected non-standard exception";
  }
  return out;
}

TEST(Scenario, FuzzedInputsParseOrPointAtALine) {
  std::size_t parsed = 0;
  std::size_t rejected = 0;
  for (const char* name : {"ci_smoke.scenario", "ci_smoke_faulty.scenario"}) {
    const std::string text = readCommittedScenario(name);
    ASSERT_FALSE(text.empty()) << name;
    ASSERT_TRUE(parseFuzzed(text).parsed) << name;
    const auto check = [&](const std::string& input, const std::string& what) {
      const FuzzOutcome o = parseFuzzed(input);
      EXPECT_EQ(o.error, "") << name << " " << what;
      ++(o.parsed ? parsed : rejected);
    };
    for (std::size_t n = 0; n < text.size(); ++n)
      check(text.substr(0, n), "prefix of " + std::to_string(n) + " bytes");
    // Single-byte substitutions at every offset: structure bytes, digits,
    // signs, letters, control and non-ASCII bytes.
    for (std::size_t i = 0; i < text.size(); ++i)
      for (const char b : {'\0', '\n', '\r', '=', '#', '[', ']', ' ', '0', '9',
                           '-', '.', 'e', 'x', '\x7f', '\xff'}) {
        if (text[i] == b) continue;
        std::string mutated = text;
        mutated[i] = b;
        check(mutated, "byte " + std::to_string(i) + " set to " +
                           std::to_string(static_cast<unsigned char>(b)));
      }
  }
  // Both outcomes occur: the fuzz reaches past the first line.
  EXPECT_GT(parsed, 1000u);
  EXPECT_GT(rejected, 1000u);
}

/// Faulty acceptance scenario: nonconvergence faults on a coarse grid, one
/// job with no failure allowance (deterministically quarantined) and two
/// tolerant ones that run to completion.
Scenario faultyScenario() {
  ensureTinyGridRegistered();
  Scenario sc = parseScenarioText(
      "name = faulty\n"
      "slice = 12\n"
      "base_seed = 5\n"
      "fault_seed = 21\n"
      "fault_nonconv = 0.45\n"
      "retry_attempts = 2\n"
      "[job]\n"
      "name = fragile\ncircuit = tiny_grid\nstrategy = random_search\n"
      "seed = 101\nbudget = 70\nmax_failures = 0\n"
      "[job]\n"
      "name = tough_rs\ncircuit = tiny_grid\nstrategy = random_search\n"
      "seed = 202\nbudget = 70\nmax_failures = 100000\n"
      "[job]\n"
      "name = tough_pvt\ncircuit = tiny_grid\nstrategy = pvt_search\n"
      "seed = 7\nbudget = 70\nmax_failures = 100000\n",
      "inline");
  return sc;
}

TEST(SchedulerFaults, QuarantineIsIsolatedAndThreadCountInvariant) {
  std::vector<std::vector<JobResult>> runs;
  for (const std::size_t threads : {1u, 2u, 4u}) {
    Scenario sc = faultyScenario();
    sc.threads = threads;
    Scheduler scheduler(std::move(sc));
    runs.push_back(scheduler.run());
    EXPECT_TRUE(scheduler.completed());
  }
  for (const std::vector<JobResult>& results : runs) {
    ASSERT_EQ(results.size(), 3u);
    // At 45% fault rate with 2 attempts, ~20% of simulations fail: the
    // zero-tolerance job is quarantined on its first round...
    EXPECT_TRUE(results[0].quarantined);
    EXPECT_GT(results[0].failures, 0u);
    EXPECT_NE(results[0].quarantineReason.find("exceed max_failures=0"),
              std::string::npos);
    // ...while the tolerant jobs absorb their failures and finish their
    // budgets untouched by the sick sibling.
    for (std::size_t j = 1; j < 3; ++j) {
      EXPECT_FALSE(results[j].quarantined) << results[j].name;
      EXPECT_TRUE(results[j].quarantineReason.empty());
      EXPECT_GT(results[j].failures, 0u) << results[j].name;
      EXPECT_EQ(results[j].outcome.iterations, results[j].budget)
          << results[j].name;
      const eval::EvalStats& s = results[j].outcome.evalStats;
      EXPECT_EQ(s.requests, s.simulated + s.cacheHits + s.sharedHits +
                                s.failures);
    }
  }
  // Everything — outcomes, ledgers, failure counts, quarantine reasons — is
  // bitwise identical for any thread count.
  for (std::size_t run = 1; run < runs.size(); ++run) {
    for (std::size_t j = 0; j < 3; ++j) {
      EXPECT_EQ(runs[run][j].rounds, runs[0][j].rounds);
      EXPECT_EQ(runs[run][j].published, runs[0][j].published);
      EXPECT_EQ(runs[run][j].failures, runs[0][j].failures);
      EXPECT_EQ(runs[run][j].quarantined, runs[0][j].quarantined);
      EXPECT_EQ(runs[run][j].quarantineReason, runs[0][j].quarantineReason);
      expectSameOutcome(runs[run][j].outcome, runs[0][j].outcome);
    }
  }
}

TEST(SchedulerFaults, JournaledRunResumesBitwise) {
  const std::string journal = testing::TempDir() + "orch_resume.tdck";

  // Reference: the uninterrupted run (journaling on, so construction-time
  // validation and round cadence match the interrupted copy exactly).
  Scenario whole = faultyScenario();
  whole.journalPath = testing::TempDir() + "orch_whole.tdck";
  Scheduler wholeSched(std::move(whole));
  const std::vector<JobResult> expected = wholeSched.run();

  // Interrupted copy: advance two rounds, drop the scheduler (the process
  // "dies"), rebuild from the journal, run to completion.
  Scenario part = faultyScenario();
  part.journalPath = journal;
  {
    Scheduler first(std::move(part));
    first.run(2);
    EXPECT_FALSE(first.completed());
  }
  Scenario rest = faultyScenario();
  rest.journalPath = journal;
  Scheduler second(std::move(rest));
  second.resume(journal);
  const std::vector<JobResult> resumed = second.run();
  EXPECT_TRUE(second.completed());

  ASSERT_EQ(resumed.size(), expected.size());
  for (std::size_t j = 0; j < expected.size(); ++j) {
    EXPECT_EQ(resumed[j].rounds, expected[j].rounds);
    EXPECT_EQ(resumed[j].published, expected[j].published);
    EXPECT_EQ(resumed[j].failures, expected[j].failures);
    EXPECT_EQ(resumed[j].quarantined, expected[j].quarantined);
    EXPECT_EQ(resumed[j].quarantineReason, expected[j].quarantineReason);
    expectSameOutcome(resumed[j].outcome, expected[j].outcome);
  }
  std::remove(journal.c_str());
  std::remove((testing::TempDir() + "orch_whole.tdck").c_str());
}

TEST(SchedulerFaults, JournaledRlPolicyResumesFromEveryRound) {
  // random_search, rl_policy (four environments, so its 10-request rounds
  // end mid-tick and mid-rollout) and pvt_search under a journal: stopped
  // after any round and resumed in a fresh scheduler, the run ends with the
  // uninterrupted rows.
  ensureTinyGridRegistered();
  const auto scenario = [](const std::string& journal) {
    Scenario sc = parseScenarioText(
        "name = rl_journal\n"
        "slice = 10\n"
        "base_seed = 5\n"
        "[job]\nname = rs\ncircuit = tiny_grid\nstrategy = random_search\n"
        "seed = 101\nbudget = 70\n"
        "[job]\nname = rl\ncircuit = tiny_grid_packed\n"
        "strategy = rl_policy\nseed = 11\nbudget = 70\nopt.hidden = 8\n"
        "opt.n_steps = 8\nopt.episode_length = 10\n"
        "[job]\nname = pvt\ncircuit = tiny_grid\nstrategy = pvt_search\n"
        "seed = 7\nbudget = 70\n",
        "inline");
    sc.journalPath = journal;
    return sc;
  };
  const std::string whole = testing::TempDir() + "orch_rl_whole.tdck";
  Scheduler wholeSched(scenario(whole));
  const std::vector<JobResult> expected = wholeSched.run();
  ASSERT_EQ(expected[1].rounds, 7u);

  const std::string journal = testing::TempDir() + "orch_rl_resume.tdck";
  for (std::size_t k = 1; k < expected[1].rounds; ++k) {
    SCOPED_TRACE("stopped after round " + std::to_string(k));
    {
      Scheduler first(scenario(journal));
      first.run(k);
      EXPECT_FALSE(first.completed());
    }
    Scheduler second(scenario(journal));
    second.resume(journal);
    const std::vector<JobResult> resumed = second.run();
    EXPECT_TRUE(second.completed());
    ASSERT_EQ(resumed.size(), expected.size());
    for (std::size_t j = 0; j < expected.size(); ++j) {
      EXPECT_EQ(resumed[j].rounds, expected[j].rounds) << expected[j].name;
      EXPECT_EQ(resumed[j].published, expected[j].published)
          << expected[j].name;
      EXPECT_EQ(resumed[j].failures, expected[j].failures) << expected[j].name;
      expectSameOutcome(resumed[j].outcome, expected[j].outcome);
    }
  }
  std::remove(journal.c_str());
  std::remove(whole.c_str());
}

TEST(SchedulerFaults, ResumeRejectsCorruptAndMismatchedJournals) {
  const std::string journal = testing::TempDir() + "orch_bad.tdck";
  {
    Scenario sc = faultyScenario();
    sc.journalPath = journal;
    Scheduler first(std::move(sc));
    first.run(1);
  }
  // A scenario that diverges from the journaled fingerprint must be refused.
  Scenario tampered = faultyScenario();
  tampered.journalPath = journal;
  tampered.jobs[1].budget = 71;
  Scheduler mismatched(std::move(tampered));
  EXPECT_THROW(mismatched.resume(journal), io::CheckpointError);

  // Truncated/garbage bytes must be refused.
  {
    std::ofstream out(journal, std::ios::binary | std::ios::trunc);
    out << "not a checkpoint";
  }
  Scenario sc2 = faultyScenario();
  sc2.journalPath = journal;
  Scheduler corrupt(std::move(sc2));
  EXPECT_THROW(corrupt.resume(journal), io::CheckpointError);

  // resume() is a pre-run operation only.
  Scenario sc3 = faultyScenario();
  Scheduler ran(std::move(sc3));
  ran.run();
  EXPECT_THROW(ran.resume(journal), std::logic_error);
  std::remove(journal.c_str());
}

TEST(SchedulerFaults, JournalRequiresCheckpointableStrategies) {
  ensureTinyGridRegistered();
  Scenario sc;
  sc.journalPath = testing::TempDir() + "never_written.tdck";
  JobSpec spec;
  spec.name = "bo";
  spec.circuit = "tiny_grid";
  spec.strategy = "tree_bayes_opt";
  spec.budget = 20;
  sc.jobs.push_back(spec);
  EXPECT_THROW(Scheduler{std::move(sc)}, std::invalid_argument);
}

}  // namespace
}  // namespace trdse::orch
