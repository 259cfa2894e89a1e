// Tests for the src/io checkpoint subsystem (ISSUE 4 determinism contract):
// a run checkpointed at step k and resumed must be bitwise identical to the
// uninterrupted run — same outcome, same ledger — for PvtSearch,
// SizingSession and the RL trainers, for any pool size. Plus the
// container's error paths (corrupt / truncated / version-mismatch /
// wrong-kind files) and the edge cases of the network,
// optimizer and scaler encodings the format builds on.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/pvt_search.hpp"
#include "core/sizing_api.hpp"
#include "eval_stats_eq.hpp"
#include "io/checkpoint.hpp"
#include "io/state_io.hpp"
#include "pool_task.hpp"
#include "rl/learner.hpp"
#include "rl/rl_strategy.hpp"

namespace trdse {
namespace {

using linalg::Vector;
using testing_stats::countersOf;

/// A path in the test temp dir, with any file an earlier run left there
/// removed: a test must never read a checkpoint it did not write itself.
std::string tmpPath(const std::string& name) {
  const std::string path = testing::TempDir() + "/" + name;
  std::remove(path.c_str());
  return path;
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
  EXPECT_EQ(a.bestValue, b.bestValue);
  expectEvalsEq({a.bestEval}, {b.bestEval});
  expectEvalsEq(a.cornerEvals, b.cornerEvals);
  EXPECT_EQ(a.cornersActivated, b.cornersActivated);
  expectLedgerEq(a.ledger, b.ledger);
  EXPECT_EQ(countersOf(a.evalStats), countersOf(b.evalStats));
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

  const std::string blob = w.finish();
  // The header's second u32 (little-endian) is the format version.
  EXPECT_EQ(static_cast<unsigned char>(blob[4]), io::kCheckpointFormatVersion);
  const io::CheckpointReader r("mem", blob);
  EXPECT_EQ(r.kind(), "unit-test");
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
  fresh.drawShuffles(rng);
  fresh.fit();
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
  fresh.drawShuffles(rngA);
  target.drawShuffles(rngB);
  EXPECT_EQ(fresh.fit(), target.fit());
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

/// A stream is exactly the words its engine writes: one word short or one
/// too many is not a state, and a restore refuses it.
TEST(StateIo, RngStreamOfTheWrongLengthIsRefused) {
  io::SectionWriter w;
  io::writeRng(w, std::mt19937_64(1234));
  io::SectionReader r("rng", w.bytes());
  std::vector<std::size_t> words = r.indexVec();
  ASSERT_GT(words.size(), 1u);
  for (const int delta : {-1, 1}) {
    std::vector<std::size_t> wrong = words;
    if (delta < 0)
      wrong.pop_back();
    else
      wrong.push_back(7);
    io::SectionWriter bad;
    bad.indexVec(wrong);
    io::SectionReader br("rng", bad.bytes());
    std::mt19937_64 rng;
    EXPECT_THROW(io::readRng(br, rng), io::CheckpointError) << delta;
  }
}

// ---------- PvtSearch: resume-at-step-k == uninterrupted ----------

/// The Table II porting hooks for hillProblem(): a starting point away from
/// the optimum and a donor network of the default surrogate shape.
void setPortingHooks(core::ExplorerConfig& e, const nn::Mlp& donor) {
  e.startingPoint = Vector{0.2, 0.8, 0.3, 0.3};
  e.warmStartWeights = &donor;
}

/// A PvtSearch paused mid-run, saved, and resumed in a brand-new search
/// (and, in memory, continued) ends bitwise equal to the uninterrupted run.
void expectResumeBitwise(bool hooks) {
  const auto prob = hillProblem();
  core::PvtSearchConfig cfg;
  cfg.seed = 3;
  const core::SpiceSurrogate donor(4, 1, cfg.explorer.surrogate, 5);
  if (hooks) setPortingHooks(cfg.explorer, donor.network());
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
  io::writeFileAtomic(path, first.save());

  core::PvtSearch resumed(prob, cfg);
  resumed.restore(io::readFileBytes(path), path);
  const auto continued = resumed.run(kBudget);
  expectOutcomeEq(full, continued);

  // In-memory pause/continue (no serialization) must agree too.
  const auto continuedInMemory = first.run(kBudget);
  expectOutcomeEq(full, continuedInMemory);
}

/// Param: the pool size every run steps in (0: no pool; see
/// testing_pool::inPoolTask), porting hooks.
class PvtResume
    : public ::testing::TestWithParam<std::tuple<std::size_t, bool>> {};

TEST_P(PvtResume, BitwiseEqualToUninterruptedRun) {
  const auto [pool, hooks] = GetParam();
  testing_pool::inPoolTask(pool,
                           [hooks = hooks] { expectResumeBitwise(hooks); });
}

INSTANTIATE_TEST_SUITE_P(
    Pools, PvtResume,
    ::testing::Values(std::make_tuple(std::size_t{0}, false),
                      std::make_tuple(std::size_t{1}, false),
                      std::make_tuple(std::size_t{2}, false),
                      std::make_tuple(std::size_t{4}, false),
                      std::make_tuple(std::size_t{2}, true)),
    [](const auto& info) {
      return "pool" + std::to_string(std::get<0>(info.param)) +
             (std::get<1>(info.param) ? "_porting" : "");
    });

TEST(PvtCheckpoint, RestoreRejectsMismatchedConfiguration) {
  const auto prob = hillProblem();
  core::PvtSearchConfig cfg;
  cfg.seed = 3;
  core::PvtSearch search(prob, cfg);
  (void)search.run(100);
  const std::string blob = search.save();

  core::PvtSearchConfig other = cfg;
  other.seed = 4;
  core::PvtSearch different(prob, other);
  try {
    different.restore(blob, "mismatch");
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
    hotterSearch.restore(blob, "mismatch");
    FAIL() << "changed corner conditions accepted";
  } catch (const io::CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find("corner:1"), std::string::npos);
  }
}

/// The porting hooks and the margin bonus join the fingerprint only when set,
/// so a snapshot saved with any of them is rejected by a search without it —
/// and the other way round.
TEST(PvtCheckpoint, RestoreRejectsMismatchedPortingHooks) {
  const auto prob = hillProblem();
  core::PvtSearchConfig plain;
  plain.seed = 3;
  const core::SpiceSurrogate donor(4, 1, plain.explorer.surrogate, 5);
  core::PvtSearchConfig withStart = plain;
  withStart.explorer.startingPoint = Vector{0.2, 0.8, 0.3, 0.3};
  core::PvtSearchConfig withWeights = plain;
  withWeights.explorer.warmStartWeights = &donor.network();
  core::PvtSearchConfig withBonus = plain;
  withBonus.explorer.marginBonus = 0.1;
  const core::PvtSearchConfig* configs[] = {&plain, &withStart, &withWeights,
                                            &withBonus};
  std::vector<std::string> blobs;
  for (const core::PvtSearchConfig* cfg : configs) {
    core::PvtSearch search(prob, *cfg);
    (void)search.run(60);
    blobs.push_back(search.save());
  }
  for (std::size_t saved = 0; saved < blobs.size(); ++saved) {
    for (std::size_t into = 0; into < blobs.size(); ++into) {
      core::PvtSearch search(prob, *configs[into]);
      if (saved == into) {
        EXPECT_NO_THROW(search.restore(blobs[saved], "mem")) << saved;
      } else {
        EXPECT_THROW(search.restore(blobs[saved], "mem"), io::CheckpointError)
            << "saved " << saved << " restored into " << into;
      }
    }
  }
  // A donor network with other weights is a different configuration too.
  const core::SpiceSurrogate otherDonor(4, 1, plain.explorer.surrogate, 6);
  core::PvtSearchConfig otherWeights = plain;
  otherWeights.explorer.warmStartWeights = &otherDonor.network();
  core::PvtSearch search(prob, otherWeights);
  EXPECT_THROW(search.restore(blobs[2], "mem"), io::CheckpointError);
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
  core::PvtSearch restored(prob, cfg);
  restored.restore(fresh.save(), "fresh");
  const auto resumed = restored.run(400);
  expectOutcomeEq(direct, resumed);
}

TEST(PvtCheckpoint, RestoreRejectsWrongKindAndCorruptFile) {
  const auto prob = hillProblem();
  core::PvtSearchConfig cfg;
  core::PvtSearch search(prob, cfg);
  const auto reference = search.run(60);

  // Corrupt: a valid checkpoint file truncated on disk fails the container
  // check and leaves the search as it was.
  const std::string path = tmpPath("pvt_corrupt.ckpt");
  io::writeFileAtomic(path, search.save());
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string blob = buf.str();
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(blob.data(), static_cast<std::streamsize>(blob.size() / 2));
  out.close();
  EXPECT_THROW(search.restore(io::readFileBytes(path), path),
               io::CheckpointError);
  EXPECT_EQ(search.save(), blob);

  // Wrong kind: hand the search a checkpoint some other producer wrote.
  io::CheckpointWriter w("rl-trainer");
  w.section("meta").str("a2c");
  try {
    search.restore(w.finish(), "alien");
    FAIL() << "wrong-kind checkpoint accepted";
  } catch (const io::CheckpointError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("rl-trainer"), std::string::npos);
    EXPECT_NE(msg.find("pvt-search"), std::string::npos);
  }
  // A restore that fails past the container check resets the search to its
  // freshly-constructed state: it runs exactly as a new one would.
  expectOutcomeEq(search.run(60), reference);
}

// ---------- SizingSession: save/resume ----------

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
  EXPECT_EQ(countersOf(full.evalStats), countersOf(continued.evalStats));
  // The whole human-readable report (timing never enters it) must agree.
  EXPECT_EQ(full.summary, continued.summary);
}

/// A session saved after a run capped at a quarter, half or three quarters
/// of what the uninterrupted run spends resumes, in a fresh session, to the
/// uninterrupted report.
TEST(SessionCheckpoint, SnapshotsAtEveryQuarterResume) {
  const auto prob = hillProblem();
  core::SessionOptions opts;
  opts.seed = 6;
  opts.maxSimulations = 500;
  core::SizingSession session(prob, opts);
  const auto full = session.run();
  ASSERT_GT(full.simulations, 40u) << "problem too easy to pause mid-run";

  for (const std::size_t quarter : {1, 2, 3}) {
    SCOPED_TRACE("quarter " + std::to_string(quarter));
    core::SessionOptions capped = opts;
    capped.maxSimulations = full.simulations * quarter / 4;
    core::SizingSession first(prob, capped);
    ASSERT_LT(first.run().simulations, full.simulations);
    const std::string path = tmpPath("session_quarter.ckpt");
    first.save(path);

    core::SizingSession resumed(prob, opts);
    resumed.resume(path);
    const auto continued = resumed.run();
    EXPECT_EQ(full.solved, continued.solved);
    EXPECT_EQ(full.simulations, continued.simulations);
    EXPECT_EQ(full.sizes, continued.sizes);  // bitwise
    expectEvalsEq(full.cornerEvals, continued.cornerEvals);
    expectLedgerEq(full.ledger, continued.ledger);
    EXPECT_EQ(countersOf(full.evalStats), countersOf(continued.evalStats));
    EXPECT_EQ(full.summary, continued.summary);
  }
}

// ---------- RL learners: resume at any request == uninterrupted ----------

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

/// rlProblem with a fused evaluator: its trainers run sim::kSimLanes envs.
core::SizingProblem fusedRlProblem() {
  core::SizingProblem p = rlProblem();
  p.evaluateBatch = [fn = p.evaluate](const Vector* const* sizes,
                                      const sim::PvtCorner* corners,
                                      core::EvalResult* results,
                                      std::size_t count) {
    for (std::size_t i = 0; i < count; ++i)
      results[i] = fn(*sizes[i], corners[i]);
  };
  return p;
}

/// The three Table I algorithms, with rollouts short enough that a run
/// updates many times, on seeds that solve only after 170+ requests at both
/// widths.
std::vector<rl::RlAlgorithm> tableOneAlgorithms() {
  rl::A2cConfig a2c;
  a2c.seed = 11;
  a2c.nSteps = 12;
  a2c.env.episodeLength = 20;
  rl::PpoConfig ppo;
  ppo.seed = 2;
  ppo.horizon = 24;
  ppo.epochs = 2;
  ppo.minibatch = 8;
  ppo.env.episodeLength = 20;
  rl::TrpoConfig trpo;
  trpo.seed = 6;
  trpo.horizon = 24;
  trpo.cgIterations = 4;
  trpo.env.episodeLength = 20;
  return {a2c, ppo, trpo};
}

TEST(RlCheckpoint, LearnersResumeMidRolloutBitwise) {
  // Request 103 is neither a tick boundary of four environments nor an
  // update: the snapshot carries a half-collected rollout and a half-done
  // tick, and a fresh learner restored from it ends where the uninterrupted
  // run does.
  constexpr std::size_t kBudget = 600;
  constexpr std::size_t kCut = 103;
  for (const std::size_t numEnvs :
       {std::size_t{1}, static_cast<std::size_t>(sim::kSimLanes)}) {
    const auto prob = numEnvs == 1 ? rlProblem() : fusedRlProblem();
    const auto other = numEnvs == 1 ? fusedRlProblem() : rlProblem();
    for (const rl::RlAlgorithm& algo : tableOneAlgorithms()) {
      SCOPED_TRACE("algorithm " + std::to_string(algo.index()) + ", " +
                   std::to_string(numEnvs) + " env(s)");
      rl::RlLearner full(prob, algo);
      ASSERT_EQ(full.collector().numEnvs(), numEnvs);
      full.run(kBudget);
      ASSERT_GT(full.outcome().totalSimulations, kCut);

      rl::RlLearner head(prob, algo);
      head.run(kCut);
      ASSERT_EQ(head.outcome().totalSimulations, kCut);
      ASSERT_GT(head.updates(), 0u);
      const std::string blob = head.save();
      EXPECT_TRUE(io::CheckpointReader("t", blob).hasSection("rollout"))
          << "request " << kCut << " is between rollouts";

      rl::RlLearner tail(prob, algo);
      tail.restore(blob, "mid-rollout");
      tail.run(kBudget);
      expectRlOutcomeEq(full.outcome(), tail.outcome());
      EXPECT_EQ(full.updates(), tail.updates());
      EXPECT_EQ(countersOf(full.engine().stats()),
                countersOf(tail.engine().stats()));

      // A snapshot saved between rollouts keeps the layout it always had.
      EXPECT_FALSE(io::CheckpointReader("t", rl::RlLearner(prob, algo).save())
                       .hasSection("rollout"));

      // The environment count is the engine's width: a snapshot taken at
      // the other width is rejected.
      rl::RlLearner wrongWidth(other, algo);
      try {
        wrongWidth.restore(blob, "other-width");
        ADD_FAILURE() << "resumed " << numEnvs << " envs at another width";
      } catch (const io::CheckpointError& e) {
        EXPECT_NE(std::string(e.what()).find("environments"),
                  std::string::npos)
            << e.what();
      }
    }
  }
}

TEST(RlCheckpoint, ResumeRejectsChangedConfiguration) {
  const auto prob = rlProblem();
  rl::A2cConfig cfg;
  cfg.seed = 4;
  rl::RlLearner head(prob, cfg);
  head.run(50);

  rl::A2cConfig other = cfg;
  other.env.episodeLength = 25;  // trajectory-shaping change
  rl::RlLearner changed(prob, other);
  try {
    changed.restore(head.save(), "a2c");
    FAIL() << "changed env configuration accepted";
  } catch (const io::CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find("fingerprint"), std::string::npos);
  }
}

TEST(RlCheckpoint, ResumeRejectsWrongAlgorithm) {
  const auto prob = rlProblem();
  rl::A2cConfig cfg;
  cfg.seed = 4;
  rl::RlLearner a2c(prob, cfg);
  a2c.run(50);

  rl::TrpoConfig trpo;
  trpo.seed = 4;
  rl::RlLearner trpoLearner(prob, trpo);
  try {
    trpoLearner.restore(a2c.save(), "a2c");
    FAIL() << "cross-algorithm resume accepted";
  } catch (const io::CheckpointError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("'a2c'"), std::string::npos) << msg;
    EXPECT_NE(msg.find("'trpo'"), std::string::npos) << msg;
  }

  // rl_policy runs the A2C update on other seed streams: its blobs carry
  // their own tag, and neither side accepts the other's.
  rl::RlPolicyStrategy policy(prob, rl::RlPolicyConfig{}, 4, 100);
  policy.step(50);
  rl::RlLearner a2cLearner(prob, cfg);
  try {
    a2cLearner.restore(policy.saveCheckpointBlob(), "rl_policy");
    FAIL() << "rl_policy blob restored into the A2C trainer";
  } catch (const io::CheckpointError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("'rl_policy'"), std::string::npos) << msg;
    EXPECT_NE(msg.find("'a2c'"), std::string::npos) << msg;
  }
  rl::RlPolicyStrategy fresh(prob, rl::RlPolicyConfig{}, 4, 100);
  EXPECT_THROW(fresh.restoreCheckpointBlob(a2c.save(), "a2c"),
               io::CheckpointError);
}

}  // namespace
}  // namespace trdse
