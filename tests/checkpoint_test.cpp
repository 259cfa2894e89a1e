// Tests for the src/io checkpoint subsystem (ISSUE 4 determinism contract):
// a run checkpointed at step k and resumed must be bitwise identical to the
// uninterrupted run — same SearchOutcome, same ledger — for PvtSearch,
// SizingSession and the RL trainers, for any evalThreads and with the eval
// cache on or off. Plus the container's error paths (corrupt / truncated /
// version-mismatch / wrong-kind files) and the edge cases of the network,
// optimizer and scaler encodings the format builds on.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>

#include "core/pvt_search.hpp"
#include "core/sizing_api.hpp"
#include "io/checkpoint.hpp"
#include "io/state_io.hpp"
#include "rl/a2c.hpp"
#include "rl/checkpoint.hpp"
#include "rl/trpo.hpp"

namespace trdse {
namespace {

using linalg::Vector;

std::string tmpPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

/// Cheap closed-form multi-corner CSP that is genuinely hard for the TRM
/// agent: 4-D, rippled (the surrogate cannot one-shot it), with a
/// corner-dependent optimum (hot and cold corners pull x2 apart, so the
/// progressive pool grows past one corner). The spec sits ~0.002 under the
/// grid max of the min-over-corners closeness, so runs take a few hundred
/// simulations and a pause at step k lands genuinely mid-run.
core::SizingProblem hillProblem() {
  core::SizingProblem p;
  p.name = "hill4";
  p.space = core::DesignSpace({{"a", 0.0, 1.0, 33, false},
                               {"b", 0.0, 1.0, 33, false},
                               {"c", 0.0, 1.0, 33, false},
                               {"d", 0.0, 1.0, 33, false}});
  p.measurementNames = {"closeness"};
  p.specs = {{"closeness", core::SpecKind::kAtLeast, 0.9167}};
  p.corners = {{sim::ProcessCorner::kTT, 1.0, 27.0},
               {sim::ProcessCorner::kSS, 1.0, 125.0},
               {sim::ProcessCorner::kFF, 1.0, -40.0}};
  p.evaluate = [](const Vector& v, const sim::PvtCorner& c) {
    core::EvalResult r;
    r.ok = true;
    const double shift =
        c.tempC > 100.0 ? -0.08 : (c.tempC < 0.0 ? 0.08 : 0.0);
    const double tx[4] = {0.4, 0.6, 0.5 + shift, 0.55};
    double d2 = 0.0;
    for (int i = 0; i < 4; ++i) d2 += (v[i] - tx[i]) * (v[i] - tx[i]);
    const double ripple = 0.04 * std::sin(31.0 * v[0]) *
                          std::sin(29.0 * v[1] + 1.0) *
                          std::cos(23.0 * v[2]) * std::sin(17.0 * v[3] + 0.5);
    r.measurements = {1.0 - std::sqrt(d2) + ripple};
    return r;
  };
  return p;
}

void expectEvalsEq(const std::vector<core::EvalResult>& a,
                   const std::vector<core::EvalResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].ok, b[i].ok);
    EXPECT_EQ(a[i].measurements, b[i].measurements);  // bitwise
  }
}

void expectLedgerEq(const pvt::EdaLedger& a, const pvt::EdaLedger& b) {
  ASSERT_EQ(a.totalBlocks(), b.totalBlocks());
  for (std::size_t i = 0; i < a.totalBlocks(); ++i) {
    EXPECT_EQ(a.blocks()[i].cornerIndex, b.blocks()[i].cornerIndex);
    EXPECT_EQ(static_cast<int>(a.blocks()[i].kind),
              static_cast<int>(b.blocks()[i].kind));
    EXPECT_EQ(a.blocks()[i].meetsSpec, b.blocks()[i].meetsSpec);
    EXPECT_EQ(a.blocks()[i].cached, b.blocks()[i].cached);
  }
}

/// Full bitwise outcome equality, timing excluded (backendSeconds is wall
/// clock — the only field outside the determinism contract).
void expectOutcomeEq(const core::PvtSearchOutcome& a,
                     const core::PvtSearchOutcome& b) {
  EXPECT_EQ(a.solved, b.solved);
  EXPECT_EQ(a.totalSims, b.totalSims);
  EXPECT_EQ(a.sizes, b.sizes);  // bitwise
  expectEvalsEq(a.cornerEvals, b.cornerEvals);
  EXPECT_EQ(a.cornersActivated, b.cornersActivated);
  expectLedgerEq(a.ledger, b.ledger);
  EXPECT_EQ(a.evalStats.requests, b.evalStats.requests);
  EXPECT_EQ(a.evalStats.simulated, b.evalStats.simulated);
  EXPECT_EQ(a.evalStats.cacheHits, b.evalStats.cacheHits);
}

// ---------- Container format ----------

TEST(CheckpointFormat, SectionRoundTrip) {
  io::CheckpointWriter w("unit-test");
  io::SectionWriter& s = w.section("payload");
  s.u8(7);
  s.boolean(true);
  s.u32(0xDEADBEEF);
  s.u64(0x0123456789ABCDEFull);
  s.i64(-42);
  s.f64(-0.0);
  s.f64(std::numeric_limits<double>::min());
  s.str("hello");
  s.vec({1.5, -2.5, 1e-300});
  s.indexVec({0, 3, 1u << 20});

  const io::CheckpointReader r("mem", w.finish());
  EXPECT_EQ(r.kind(), "unit-test");
  EXPECT_EQ(r.version(), io::kCheckpointFormatVersion);
  io::SectionReader p = r.section("payload");
  EXPECT_EQ(p.u8(), 7);
  EXPECT_TRUE(p.boolean());
  EXPECT_EQ(p.u32(), 0xDEADBEEFu);
  EXPECT_EQ(p.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(p.i64(), -42);
  const double negZero = p.f64();
  EXPECT_EQ(std::signbit(negZero), true);  // -0.0 round-trips bit-exactly
  EXPECT_EQ(p.f64(), std::numeric_limits<double>::min());
  EXPECT_EQ(p.str(), "hello");
  EXPECT_EQ(p.vec(), Vector({1.5, -2.5, 1e-300}));
  EXPECT_EQ(p.indexVec(), std::vector<std::size_t>({0, 3, 1u << 20}));
  p.expectEnd();
}

TEST(CheckpointFormat, SaveIsDeterministic) {
  // Identical state must produce identical bytes (save -> load -> save).
  const auto build = [] {
    io::CheckpointWriter w("det");
    w.section("a").vec({1.0, 2.0});
    w.section("b").str("x");
    return w.finish();
  };
  EXPECT_EQ(build(), build());
}

TEST(CheckpointFormat, RejectsBadMagic) {
  std::string blob = [] {
    io::CheckpointWriter w("k");
    w.section("s").u8(1);
    return w.finish();
  }();
  blob[0] = 'X';
  try {
    io::CheckpointReader r("mem", blob);
    FAIL() << "bad magic accepted";
  } catch (const io::CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find("bad magic"), std::string::npos);
  }
}

TEST(CheckpointFormat, RejectsFutureVersion) {
  std::string blob = [] {
    io::CheckpointWriter w("k");
    w.section("s").u8(1);
    return w.finish();
  }();
  blob[4] = 99;  // little-endian version field
  try {
    io::CheckpointReader r("mem", blob);
    FAIL() << "future version accepted";
  } catch (const io::CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find("unsupported format version 99"),
              std::string::npos);
  }
}

TEST(CheckpointFormat, RejectsCorruptAndTruncatedBodies) {
  std::string blob = [] {
    io::CheckpointWriter w("k");
    w.section("s").vec({1.0, 2.0, 3.0});
    return w.finish();
  }();
  std::string flipped = blob;
  flipped[blob.size() - 1] = static_cast<char>(flipped[blob.size() - 1] ^ 0x5A);
  EXPECT_THROW({ io::CheckpointReader r("mem", flipped); },
               io::CheckpointError);
  const std::string truncated = blob.substr(0, blob.size() - 4);
  try {
    io::CheckpointReader r("mem", truncated);
    FAIL() << "truncated body accepted";
  } catch (const io::CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find("checksum"), std::string::npos);
  }
  EXPECT_THROW({ io::CheckpointReader r("mem", blob.substr(0, 7)); },
               io::CheckpointError);
}

TEST(CheckpointFormat, MissingFileAndMissingSectionThrow) {
  EXPECT_THROW(io::CheckpointReader::fromFile(tmpPath("does-not-exist.ckpt")),
               io::CheckpointError);
  io::CheckpointWriter w("k");
  w.section("present").u8(1);
  const io::CheckpointReader r("mem", w.finish());
  EXPECT_TRUE(r.hasSection("present"));
  EXPECT_FALSE(r.hasSection("absent"));
  EXPECT_THROW(r.section("absent"), io::CheckpointError);
}

// ---------- network / optimizer / scaler encodings ----------

/// Encode one section with `write` and return the container holding it.
template <class Write>
io::CheckpointReader encodeSection(Write write) {
  io::CheckpointWriter w("t");
  write(w.section("s"));
  return io::CheckpointReader("mem", w.finish());
}

TEST(StateIo, ReadMlpRejectsNonFiniteWeights) {
  nn::Mlp net(nn::MlpConfig{{2, 4, 1}}, /*seed=*/3);
  {
    const io::CheckpointReader r =
        encodeSection([&](io::SectionWriter& w) { io::writeMlp(w, net); });
    io::SectionReader sr = r.section("s");
    EXPECT_EQ(io::readMlp(sr).getParameters(), net.getParameters());
    sr.expectEnd();
  }
  Vector params = net.getParameters();
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
    params[2] = bad;
    net.setParameters(params);
    const io::CheckpointReader r =
        encodeSection([&](io::SectionWriter& w) { io::writeMlp(w, net); });
    io::SectionReader sr = r.section("s");
    EXPECT_THROW(io::readMlp(sr), io::CheckpointError) << bad;
  }
}

TEST(StateIo, AdamMidTrainingRoundTripContinuesUpdateStream) {
  nn::Mlp net(nn::MlpConfig{{3, 8, 2}}, /*seed=*/5);
  nn::AdamOptimizer opt(1e-3);
  // A few real steps so t > 0 and both moment vectors are non-trivial.
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> unif(-1.0, 1.0);
  for (int step = 0; step < 3; ++step) {
    net.forward({unif(rng), unif(rng), unif(rng)});
    net.backward({unif(rng), unif(rng)});
    opt.step(net);
  }
  const io::CheckpointReader r =
      encodeSection([&](io::SectionWriter& w) { io::writeAdam(w, opt); });
  nn::AdamOptimizer restored(1e-3);
  io::SectionReader sr = r.section("s");
  io::readAdam(sr, restored, net.parameterCount());
  sr.expectEnd();
  EXPECT_EQ(restored.stepCount(), opt.stepCount());
  EXPECT_EQ(restored.firstMoments(), opt.firstMoments());    // bitwise
  EXPECT_EQ(restored.secondMoments(), opt.secondMoments());  // bitwise

  // The restored optimizer must continue the exact update stream.
  nn::Mlp netB = net;
  net.forward({0.1, 0.2, 0.3});
  net.backward({1.0, -1.0});
  opt.step(net);
  netB.forward({0.1, 0.2, 0.3});
  netB.backward({1.0, -1.0});
  restored.step(netB);
  EXPECT_EQ(net.getParameters(), netB.getParameters());
}

TEST(StateIo, ZeroVarianceStandardizerColumnsRoundTrip) {
  nn::Standardizer s;
  // Column 1 is constant: std becomes degenerate and must survive exactly.
  s.fit({{1.0, 5.0}, {3.0, 5.0}, {2.0, 5.0}});
  const io::CheckpointReader r = encodeSection(
      [&](io::SectionWriter& w) { io::writeStandardizer(w, s); });
  nn::Standardizer restored;
  io::SectionReader sr = r.section("s");
  io::readStandardizer(sr, restored);
  sr.expectEnd();
  EXPECT_EQ(restored.mean(), s.mean());
  EXPECT_EQ(restored.std(), s.std());
  // Transform parity on the degenerate column, bitwise.
  EXPECT_EQ(restored.transform({2.5, 5.0}), s.transform({2.5, 5.0}));
}

TEST(StateIo, MalformedPayloadsAreRejected) {
  {  // Truncated: one byte where a network's layer list should be.
    const io::CheckpointReader r =
        encodeSection([](io::SectionWriter& w) { w.u8(7); });
    io::SectionReader sr = r.section("s");
    EXPECT_THROW(io::readMlp(sr), io::CheckpointError);
  }
  {  // A one-layer network.
    const io::CheckpointReader r = encodeSection([](io::SectionWriter& w) {
      w.indexVec({3});
      w.u8(0);
      w.u8(0);
      w.vec({});
    });
    io::SectionReader sr = r.section("s");
    EXPECT_THROW(io::readMlp(sr), io::CheckpointError);
  }
  {  // Adam moment vectors of different lengths.
    const io::CheckpointReader r = encodeSection([](io::SectionWriter& w) {
      w.i64(2);
      w.vec({0.1, 0.2});
      w.vec({0.3});
    });
    nn::AdamOptimizer opt(1e-3);
    io::SectionReader sr = r.section("s");
    EXPECT_THROW(io::readAdam(sr, opt), io::CheckpointError);
  }
  {  // Standardizer mean and std of different lengths.
    const io::CheckpointReader r = encodeSection([](io::SectionWriter& w) {
      w.vec({1.0, 2.0});
      w.vec({1.0});
    });
    nn::Standardizer st;
    io::SectionReader sr = r.section("s");
    EXPECT_THROW(io::readStandardizer(sr, st), io::CheckpointError);
  }
}

TEST(StateIo, EmptyAndLoadedSurrogateRoundTrip) {
  core::SpiceSurrogate fresh(2, 1, core::SurrogateConfig{}, /*seed=*/11);
  {
    // Empty dataset: a surrogate that never saw a sample round-trips.
    io::CheckpointWriter w("t");
    io::writeSurrogate(w.section("s"), fresh);
    const io::CheckpointReader r("mem", w.finish());
    core::SpiceSurrogate target(2, 1, core::SurrogateConfig{}, /*seed=*/99);
    io::SectionReader sr = r.section("s");
    io::readSurrogate(sr, target);
    sr.expectEnd();
    EXPECT_EQ(target.sampleCount(), 0u);
    EXPECT_EQ(target.network().getParameters(),
              fresh.network().getParameters());
  }
  // Mid-training: samples + fitted scalers + Adam moments all restored, and
  // the restored surrogate predicts bitwise identically.
  std::mt19937_64 rng(13);
  for (int i = 0; i < 8; ++i) {
    const double x = 0.1 * i;
    fresh.addSample({x, 1.0 - x}, {std::sin(x)});
  }
  fresh.train(rng);
  io::CheckpointWriter w("t");
  io::writeSurrogate(w.section("s"), fresh);
  const io::CheckpointReader r("mem", w.finish());
  core::SpiceSurrogate target(2, 1, core::SurrogateConfig{}, /*seed=*/99);
  io::SectionReader sr = r.section("s");
  io::readSurrogate(sr, target);
  sr.expectEnd();
  EXPECT_EQ(target.sampleCount(), fresh.sampleCount());
  EXPECT_EQ(target.optimizer().stepCount(), fresh.optimizer().stepCount());
  EXPECT_EQ(target.predict({0.35, 0.65}), fresh.predict({0.35, 0.65}));
  // And trains on identically from the restored Adam/scaler state.
  std::mt19937_64 rngA(29);
  std::mt19937_64 rngB(29);
  EXPECT_EQ(fresh.train(rngA), target.train(rngB));
  EXPECT_EQ(target.network().getParameters(),
            fresh.network().getParameters());
}

TEST(StateIo, SurrogateShapeMismatchThrows) {
  core::SpiceSurrogate a(2, 1, core::SurrogateConfig{}, 1);
  io::CheckpointWriter w("t");
  io::writeSurrogate(w.section("s"), a);
  const io::CheckpointReader r("mem", w.finish());
  core::SpiceSurrogate b(3, 2, core::SurrogateConfig{}, 1);
  io::SectionReader sr = r.section("s");
  EXPECT_THROW(io::readSurrogate(sr, b), io::CheckpointError);
}

TEST(StateIo, RngStreamRoundTripContinuesExactly) {
  std::mt19937_64 rng(1234);
  rng.discard(1000);
  io::CheckpointWriter w("t");
  io::writeRng(w.section("rng"), rng);
  const io::CheckpointReader r("mem", w.finish());
  std::mt19937_64 restored;
  io::SectionReader sr = r.section("rng");
  io::readRng(sr, restored);
  sr.expectEnd();
  for (int i = 0; i < 64; ++i) EXPECT_EQ(rng(), restored());
}

// ---------- PvtSearch: resume-at-step-k == uninterrupted ----------

class PvtResume : public ::testing::TestWithParam<std::tuple<bool, std::size_t>> {};

TEST_P(PvtResume, BitwiseEqualToUninterruptedRun) {
  const auto [cacheOn, threads] = GetParam();
  const auto prob = hillProblem();
  core::PvtSearchConfig cfg;
  cfg.seed = 3;
  cfg.cacheEvals = cacheOn;
  cfg.explorer.cacheEvals = cacheOn;
  cfg.evalThreads = threads;
  const std::size_t kBudget = 2000;

  core::PvtSearch uninterrupted(prob, cfg);
  const auto full = uninterrupted.run(kBudget);
  ASSERT_GT(full.totalSims, 40u) << "problem too easy to pause mid-run";

  // Pause at step k (mid-run by construction), snapshot, restore into a
  // brand-new search, continue.
  const std::size_t kPause = full.totalSims / 2;
  core::PvtSearch first(prob, cfg);
  const auto partial = first.run(kPause);
  ASSERT_LT(partial.totalSims, full.totalSims) << "pause landed past the end";
  const std::string path = tmpPath("pvt_resume.ckpt");
  first.saveCheckpoint(path);

  core::PvtSearch resumed(prob, cfg);
  resumed.restoreCheckpoint(path);
  const auto continued = resumed.run(kBudget);
  expectOutcomeEq(full, continued);

  // In-memory pause/continue (no serialization) must agree too.
  const auto continuedInMemory = first.run(kBudget);
  expectOutcomeEq(full, continuedInMemory);
}

INSTANTIATE_TEST_SUITE_P(
    CacheAndThreads, PvtResume,
    ::testing::Values(std::make_tuple(true, std::size_t{1}),
                      std::make_tuple(false, std::size_t{1}),
                      std::make_tuple(true, std::size_t{2}),
                      std::make_tuple(false, std::size_t{3})),
    [](const auto& info) {
      return std::string(std::get<0>(info.param) ? "cache" : "nocache") +
             "_threads" + std::to_string(std::get<1>(info.param));
    });

TEST(PvtCheckpoint, RestoreRejectsMismatchedConfiguration) {
  const auto prob = hillProblem();
  core::PvtSearchConfig cfg;
  cfg.seed = 3;
  core::PvtSearch search(prob, cfg);
  (void)search.run(100);
  const std::string path = tmpPath("pvt_mismatch.ckpt");
  search.saveCheckpoint(path);

  core::PvtSearchConfig other = cfg;
  other.seed = 4;
  core::PvtSearch different(prob, other);
  try {
    different.restoreCheckpoint(path);
    FAIL() << "mismatched config accepted";
  } catch (const io::CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find("seed"), std::string::npos);
  }

  // Changed corner *conditions* (same count) must be rejected too: the
  // restored memo is keyed by corner index, so it would otherwise serve
  // simulations from the old conditions silently.
  auto hotter = hillProblem();
  hotter.corners[1].tempC = 150.0;
  core::PvtSearch hotterSearch(hotter, cfg);
  try {
    hotterSearch.restoreCheckpoint(path);
    FAIL() << "changed corner conditions accepted";
  } catch (const io::CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find("corner:1"), std::string::npos);
  }
}

TEST(PvtCheckpoint, FreshSnapshotBeforeFirstRunIsRestorable) {
  // save() before any run() snapshots a fresh search; restoring it and
  // running must equal a direct run (the documented SizingSession contract).
  const auto prob = hillProblem();
  core::PvtSearchConfig cfg;
  cfg.seed = 3;
  core::PvtSearch reference(prob, cfg);
  const auto direct = reference.run(400);

  core::PvtSearch fresh(prob, cfg);
  const std::string path = tmpPath("pvt_fresh.ckpt");
  fresh.saveCheckpoint(path);
  core::PvtSearch restored(prob, cfg);
  restored.restoreCheckpoint(path);
  const auto resumed = restored.run(400);
  expectOutcomeEq(direct, resumed);
}

TEST(PvtCheckpoint, CheckpointCadenceWithoutPathThrows) {
  core::PvtSearchConfig cfg;
  cfg.autoCheckpointEvery = 5;  // no autoCheckpointPath
  EXPECT_THROW(core::PvtSearch(hillProblem(), cfg), std::invalid_argument);
}

TEST(PvtCheckpoint, RestoreRejectsWrongKindAndCorruptFile) {
  const auto prob = hillProblem();
  core::PvtSearchConfig cfg;
  core::PvtSearch search(prob, cfg);
  (void)search.run(60);

  // Wrong kind: hand the search a checkpoint some other producer wrote.
  const std::string alien = tmpPath("alien.ckpt");
  io::CheckpointWriter w("rl-trainer");
  w.section("meta").str("a2c");
  w.writeFile(alien);
  try {
    search.restoreCheckpoint(alien);
    FAIL() << "wrong-kind checkpoint accepted";
  } catch (const io::CheckpointError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("rl-trainer"), std::string::npos);
    EXPECT_NE(msg.find("pvt-search"), std::string::npos);
  }

  // Corrupt: truncate a valid checkpoint file on disk.
  const std::string path = tmpPath("pvt_corrupt.ckpt");
  search.saveCheckpoint(path);
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string blob = buf.str();
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(blob.data(), static_cast<std::streamsize>(blob.size() / 2));
  out.close();
  EXPECT_THROW(search.restoreCheckpoint(path), io::CheckpointError);
}

// ---------- SizingSession: save/resume + periodic auto-checkpoint ----------

TEST(SessionCheckpoint, SaveResumeReproducesReportBitwise) {
  const auto prob = hillProblem();
  core::SessionOptions optsFull;
  optsFull.seed = 5;
  optsFull.maxSimulations = 1500;
  core::SizingSession uninterrupted(prob, optsFull);
  const auto full = uninterrupted.run();
  ASSERT_GT(full.simulations, 40u) << "problem too easy to pause mid-run";

  core::SessionOptions optsHalf = optsFull;
  optsHalf.maxSimulations = full.simulations / 2;
  core::SizingSession first(prob, optsHalf);
  const auto partial = first.run();
  ASSERT_LT(partial.simulations, full.simulations);
  const std::string path = tmpPath("session_resume.ckpt");
  first.save(path);

  core::SizingSession resumed(prob, optsFull);
  resumed.resume(path);
  const auto continued = resumed.run();

  EXPECT_EQ(full.solved, continued.solved);
  EXPECT_EQ(full.simulations, continued.simulations);
  EXPECT_EQ(full.sizes, continued.sizes);  // bitwise
  expectEvalsEq(full.cornerEvals, continued.cornerEvals);
  expectLedgerEq(full.ledger, continued.ledger);
  EXPECT_EQ(full.evalStats.requests, continued.evalStats.requests);
  EXPECT_EQ(full.evalStats.simulated, continued.evalStats.simulated);
  EXPECT_EQ(full.evalStats.cacheHits, continued.evalStats.cacheHits);
  // The whole human-readable report (timing never enters it) must agree.
  EXPECT_EQ(full.summary, continued.summary);
}

TEST(SessionCheckpoint, PeriodicAutoCheckpointIsResumable) {
  const auto prob = hillProblem();
  const std::string path = tmpPath("session_auto.ckpt");
  core::SessionOptions opts;
  opts.seed = 6;
  opts.maxSimulations = 1200;
  opts.checkpointEvery = 4;  // every 4 TRM steps
  opts.checkpointPath = path;
  core::SizingSession session(prob, opts);
  const auto full = session.run();

  // The periodic snapshot exists and resuming it lands on the same outcome.
  core::SessionOptions optsResume;
  optsResume.seed = 6;
  optsResume.maxSimulations = 1200;
  core::SizingSession resumed(prob, optsResume);
  resumed.resume(path);
  const auto continued = resumed.run();
  EXPECT_EQ(full.solved, continued.solved);
  EXPECT_EQ(full.simulations, continued.simulations);
  EXPECT_EQ(full.sizes, continued.sizes);
  EXPECT_EQ(full.summary, continued.summary);
}

// ---------- RL trainers: resume-at-update-k == uninterrupted ----------

core::SizingProblem rlProblem() {
  core::SizingProblem p;
  p.name = "rl-hill";
  p.space = core::DesignSpace({{"x", 0.0, 1.0, 33, false},
                               {"y", 0.0, 1.0, 33, false}});
  p.measurementNames = {"closeness"};
  p.specs = {{"closeness", core::SpecKind::kAtLeast, 0.93}};
  p.corners = {{sim::ProcessCorner::kTT, 1.0, 27.0}};
  p.evaluate = [](const Vector& v, const sim::PvtCorner&) {
    core::EvalResult r;
    r.ok = true;
    const double dx = v[0] - 0.55;
    const double dy = v[1] - 0.45;
    r.measurements = {1.0 - std::sqrt(dx * dx + dy * dy)};
    return r;
  };
  return p;
}

void expectRlOutcomeEq(const rl::RlTrainOutcome& a, const rl::RlTrainOutcome& b) {
  EXPECT_EQ(a.solved, b.solved);
  EXPECT_EQ(a.simulationsToSolve, b.simulationsToSolve);
  EXPECT_EQ(a.totalSimulations, b.totalSimulations);
  EXPECT_EQ(a.bestEpisodeReturn, b.bestEpisodeReturn);  // bitwise
}

TEST(RlCheckpoint, A2cResumeBitwiseEqualSingleAndMultiEnv) {
  const auto prob = rlProblem();
  for (const std::size_t numEnvs : {std::size_t{1}, std::size_t{2}}) {
    rl::A2cConfig cfg;
    cfg.seed = 9;
    cfg.nSteps = 12;
    cfg.numEnvs = numEnvs;
    cfg.env.episodeLength = 20;
    const std::size_t kBudget = 600;

    const rl::RlTrainOutcome full = rl::trainA2c(prob, cfg, kBudget);

    const std::string path =
        tmpPath("a2c_resume_" + std::to_string(numEnvs) + ".ckpt");
    rl::A2cConfig head = cfg;
    head.maxUpdates = 5;
    head.checkpointEvery = 5;
    head.checkpointPath = path;
    const rl::RlTrainOutcome partial = rl::trainA2c(prob, head, kBudget);
    ASSERT_LT(partial.totalSimulations, full.totalSimulations)
        << "pause landed past the end of training";

    rl::A2cConfig tail = cfg;
    tail.resumeFrom = path;
    const rl::RlTrainOutcome continued = rl::trainA2c(prob, tail, kBudget);
    expectRlOutcomeEq(full, continued);
  }
}

TEST(RlCheckpoint, CheckpointCadenceWithoutPathThrows) {
  rl::A2cConfig cfg;
  cfg.checkpointEvery = 5;  // no checkpointPath
  EXPECT_THROW((void)rl::trainA2c(rlProblem(), cfg, 100),
               std::invalid_argument);
}

TEST(RlCheckpoint, ResumeRejectsChangedConfiguration) {
  const auto prob = rlProblem();
  rl::A2cConfig cfg;
  cfg.seed = 9;
  cfg.maxUpdates = 2;
  cfg.checkpointEvery = 2;
  cfg.checkpointPath = tmpPath("a2c_fingerprint.ckpt");
  (void)rl::trainA2c(prob, cfg, 300);

  rl::A2cConfig other = cfg;
  other.maxUpdates = 0;
  other.checkpointEvery = 0;
  other.checkpointPath.clear();
  other.resumeFrom = cfg.checkpointPath;
  other.env.episodeLength = 25;  // trajectory-shaping change
  try {
    (void)rl::trainA2c(prob, other, 300);
    FAIL() << "changed env configuration accepted";
  } catch (const io::CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find("fingerprint"), std::string::npos);
  }
}

TEST(RlCheckpoint, ResumeRejectsWrongAlgorithm) {
  const auto prob = rlProblem();
  rl::A2cConfig cfg;
  cfg.seed = 9;
  cfg.maxUpdates = 2;
  cfg.checkpointEvery = 2;
  cfg.checkpointPath = tmpPath("a2c_for_trpo.ckpt");
  (void)rl::trainA2c(prob, cfg, 300);

  rl::TrpoConfig trpo;
  trpo.seed = 9;
  trpo.resumeFrom = cfg.checkpointPath;
  try {
    (void)rl::trainTrpo(prob, trpo, 300);
    FAIL() << "cross-algorithm resume accepted";
  } catch (const io::CheckpointError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("a2c"), std::string::npos);
    EXPECT_NE(msg.find("trpo"), std::string::npos);
  }
}

}  // namespace
}  // namespace trdse
