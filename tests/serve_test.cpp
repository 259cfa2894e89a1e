// End-to-end suite for the sizing service (src/serve): a real serve::Daemon
// on a real Unix-domain socket, driven through the typed serve::Client — the
// same transport + codec path `trdse submit` uses.
//
// The contracts under test are the service half of the repo's determinism
// story (docs/SERVICE.md):
//  * submit-vs-run byte identity — a submission against a fresh daemon
//    streams exactly the report `trdse run` renders for the same text;
//  * two-tenant fairness — scheduler rounds rotate across tenants, so a
//    tenant's backlog cannot starve another tenant's first submission;
//  * cache persistence — the daemon's SharedEvalCache survives a restart
//    (destroying a live Daemon is the in-process stand-in for SIGKILL: no
//    destructor flush, durable state is only what barriers already wrote),
//    turning an identical resubmission into pure shared hits;
//  * journaled crash recovery — an in-flight journaled submission killed
//    mid-run resumes bitwise after a restart (PR 6 journal composed with the
//    service manifest);
//  * admission — malformed text, oversized submissions, and unknown ids are
//    typed serve/rejected answers, not transport faults, and a
//    non-checkpointable scenario downgrades to journaled=false instead of
//    being refused; an admission whose record cannot be written is rejected
//    naming the I/O error and never becomes a submission;
//  * the state log — a torn or corrupt final record (cut at every byte,
//    flipped at every byte) recovers the previous barrier's state and is
//    truncated away, a stale-generation log left by a crash mid-fold is
//    ignored, a parent-format state dir is read as the first base, eviction
//    survives a restart, and a warm round appends the same bytes however
//    large the rest of the cache is.
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "circuits/registry.hpp"
#include "io/checkpoint.hpp"
#include "orch/journal.hpp"
#include "orch/scenario.hpp"
#include "orch/scheduler.hpp"
#include "orch/wire.hpp"
#include "serve/client.hpp"
#include "serve/daemon.hpp"
#include "serve/report.hpp"
#include "serve/state_log.hpp"

namespace trdse::serve {
namespace {

/// Synthetic 2-D CSP on a coarse 9x9 grid so jobs collide on cache keys
/// within a few rounds (same shape orch_test/orch_dist_test register; this
/// binary registers its own copy).
void ensureTinyGridRegistered() {
  static const bool once = [] {
    circuits::Registry::global().add(
        {"tiny_grid", "bsim45", "coarse synthetic CSP (serve tests)",
         [](const sim::ProcessCard&, std::vector<sim::PvtCorner> corners) {
           core::SizingProblem p;
           p.name = "tiny_grid";
           p.space = core::DesignSpace({{"x", 0.0, 1.0, 9, false},
                                        {"y", 0.0, 1.0, 9, false}});
           p.measurementNames = {"closeness", "budget"};
           p.specs = {{"closeness", core::SpecKind::kAtLeast, 0.95},
                      {"budget", core::SpecKind::kAtMost, 1.6}};
           p.corners = {{sim::ProcessCorner::kTT, 1.0, 27.0}};
           if (!corners.empty()) p.corners = std::move(corners);
           p.evaluate = [](const linalg::Vector& v, const sim::PvtCorner&) {
             core::EvalResult r;
             r.ok = true;
             const double dx = v[0] - 0.66;
             const double dy = v[1] - 0.31;
             r.measurements = {1.0 - std::sqrt(dx * dx + dy * dy),
                               v[0] + v[1]};
             return r;
           };
           return p;
         }});
    // A circuit whose factory fails with something other than
    // std::invalid_argument (say, a netlist that cannot be read).
    circuits::Registry::global().add(
        {"broken_grid", "bsim45", "factory that throws (serve tests)",
         [](const sim::ProcessCard&,
            std::vector<sim::PvtCorner>) -> core::SizingProblem {
           throw std::runtime_error("broken_grid: netlist unavailable");
         }});
    return true;
  }();
  (void)once;
}

/// A two-job checkpointable scenario (pvt_search + random_search both
/// support journaling); `tag` desynchronizes seeds across tests so cache
/// scopes do not accidentally overlap between unrelated daemons.
std::string checkpointableScenario(const std::string& name, unsigned seedBase,
                                   std::size_t budget = 64) {
  return "name = " + name +
         "\n"
         "threads = 1\n"
         "slice = 8\n"
         "shards = 4\n"
         "[job]\n"
         "name = pvt_a\n"
         "circuit = tiny_grid\n"
         "strategy = pvt_search\n"
         "seed = " +
         std::to_string(seedBase) +
         "\n"
         "budget = " +
         std::to_string(budget) +
         "\n"
         "[job]\n"
         "name = rs_b\n"
         "circuit = tiny_grid\n"
         "strategy = random_search\n"
         "seed = " +
         std::to_string(seedBase + 1) +
         "\n"
         "budget = " +
         std::to_string(budget) + "\n";
}

/// Render the report a fresh `trdse run` of `text` would print — the
/// reference side of the submit-vs-run byte-identity contract. Absolute
/// shard counters: a fresh scheduler's cache starts at zero.
std::string referenceRunReport(const std::string& text) {
  orch::Scheduler sched(orch::parseScenarioText(text, "reference"));
  const std::vector<orch::JobResult> results = sched.run();
  const orch::Scenario& sc = sched.scenario();
  ReportInput in;
  in.scenarioName = sc.name;
  in.jobCount = sc.jobs.size();
  in.slice = sc.slice;
  in.sharedCacheOn = sc.sharedCache;
  in.results = results;
  if (const eval::SharedEvalCache* cache = sched.sharedCache()) {
    in.haveCache = true;
    for (std::size_t s = 0; s < cache->shardCount(); ++s) {
      const auto c = cache->shardStats(s);
      in.shards.push_back({c.entries, c.hits, c.misses, c.inserts});
    }
  }
  return renderReport(in);
}

/// Daemon + background tick thread. halt() stops ticking without any
/// shutdown handshake; destroying the Daemon afterwards models SIGKILL
/// (durable state = whatever the barriers persisted).
class DaemonHarness {
 public:
  explicit DaemonHarness(DaemonConfig cfg)
      : daemon_(std::make_unique<Daemon>(std::move(cfg))) {}
  ~DaemonHarness() { halt(); }

  void start() {
    ticking_ = true;
    thread_ = std::thread([this] {
      while (!stop_.load(std::memory_order_relaxed) &&
             !daemon_->shutdownRequested())
        daemon_->tick(2);
    });
  }
  void halt() {
    if (!ticking_) return;
    stop_.store(true, std::memory_order_relaxed);
    thread_.join();
    ticking_ = false;
    stop_.store(false, std::memory_order_relaxed);
  }
  /// SIGKILL stand-in: stop ticking and drop the daemon mid-flight.
  void kill() {
    halt();
    daemon_.reset();
  }
  Daemon& daemon() { return *daemon_; }

 private:
  std::unique_ptr<Daemon> daemon_;
  std::thread thread_;
  std::atomic<bool> stop_{false};
  bool ticking_ = false;
};

DaemonConfig makeConfig(const std::string& dir, std::size_t shards = 4) {
  DaemonConfig cfg;
  cfg.socketPath = dir + "/daemon.sock";
  cfg.stateDir = dir + "/state";
  cfg.cacheShards = shards;
  return cfg;
}

std::string freshDir(const std::string& tag) {
  const std::string dir = ::testing::TempDir() + "serve_" + tag;
  std::system(("rm -rf " + dir + " && mkdir -p " + dir).c_str());
  return dir;
}

std::string readFile(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(f), {});
}

void writeFile(const std::string& path, const std::string& bytes) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::uint64_t fileSize(const std::string& path) {
  std::error_code ec;
  const auto n = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<std::uint64_t>(n);
}

/// Start offsets of the `[u64 length][container]` records of a state log.
std::vector<std::size_t> recordOffsets(const std::string& log) {
  std::vector<std::size_t> offsets;
  for (std::size_t pos = 0; pos + 8 <= log.size();) {
    std::uint64_t len = 0;
    for (int i = 0; i < 8; ++i)
      len |= static_cast<std::uint64_t>(
                 static_cast<unsigned char>(log[pos + i]))
             << (8 * i);
    offsets.push_back(pos);
    pos += 8 + len;
  }
  return offsets;
}

/// Recover `stateDir` into a fresh cache and encode everything recovered —
/// cache contents and counters, meta, LRU, manifest entries — as one string.
std::string recoveredDigest(const std::string& stateDir) {
  eval::SharedEvalCache cache(4);
  StateLog log(stateDir);
  const RecoveredState st = log.recover(cache);
  io::SectionWriter w;
  cache.saveState(w);
  w.u64(st.meta.nextId);
  w.str(st.meta.lastServedTenant);
  w.u64(st.meta.lru.size());
  for (const std::string& scope : st.meta.lru) w.str(scope);
  w.u64(st.jobs.size());
  for (const SubmissionEntry& e : st.jobs) writeSubmissionEntry(w, e);
  return w.bytes();
}

/// Poll until submission `id` has run `rounds` rounds.
void waitForRounds(Client& client, std::uint64_t id, std::size_t rounds) {
  for (;;) {
    const std::vector<JobStatus> rows = client.status(id);
    ASSERT_EQ(rows.size(), 1u);
    ASSERT_TRUE(rows[0].state == "queued" || rows[0].state == "running")
        << rows[0].state << " " << rows[0].error;
    if (rows[0].rounds >= rounds) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

TEST(ServeTest, SubmitMatchesRunBitwise) {
  ensureTinyGridRegistered();
  const std::string text = checkpointableScenario("bitwise", 101);
  const std::string expected = referenceRunReport(text);

  const std::string dir = freshDir("bitwise");
  DaemonHarness harness(makeConfig(dir));
  harness.start();

  Client client = Client::connect(dir + "/daemon.sock");
  SubmitRequest req;
  req.scenarioText = text;
  bool journaled = false;
  const std::uint64_t id = client.submit(req, &journaled);
  EXPECT_TRUE(journaled);

  std::size_t progressEvents = 0;
  std::size_t lastRound = 0;
  const FinalResult res = client.stream(id, [&](const ProgressEvent& ev) {
    ++progressEvents;
    EXPECT_GT(ev.round, lastRound);  // rounds stream in order
    lastRound = ev.round;
  });
  EXPECT_EQ(res.id, id);
  EXPECT_FALSE(res.quarantined);
  EXPECT_EQ(res.report, expected);  // the byte-identity contract
  ASSERT_EQ(res.rows.size(), 2u);
  EXPECT_EQ(res.rows[0].name, "pvt_a");
  EXPECT_GE(progressEvents, 1u);

  // A completed submission replays its result to a late subscriber.
  const FinalResult replay = client.stream(id);
  EXPECT_EQ(replay.report, expected);
}

TEST(ServeTest, TwoTenantFairnessNoStarvation) {
  ensureTinyGridRegistered();
  const std::string dir = freshDir("fairness");
  DaemonHarness harness(makeConfig(dir));
  harness.start();

  Client client = Client::connect(dir + "/daemon.sock");
  SubmitRequest a1, a2, b1;
  a1.tenant = a2.tenant = "alice";
  b1.tenant = "bob";
  a1.scenarioText = checkpointableScenario("a1", 201);
  a2.scenarioText = checkpointableScenario("a2", 211);
  b1.scenarioText = checkpointableScenario("b1", 221);
  const std::uint64_t idA1 = client.submit(a1);
  const std::uint64_t idA2 = client.submit(a2);
  const std::uint64_t idB1 = client.submit(b1);

  // Round-robin across tenants means bob's first submission finishes while
  // alice's *second* is still early in its run — under FIFO (no tenant
  // fairness) a2 would have completed before b1 ever got a round.
  const FinalResult resB = client.stream(idB1);
  EXPECT_FALSE(resB.quarantined);
  bool a2Done = false;
  for (const JobStatus& row : client.status()) {
    if (row.id == idA2) a2Done = row.state == "completed";
    if (row.id == idA1) {
      EXPECT_EQ(row.state, "completed");  // alternation: a1 finished first
    }
  }
  EXPECT_FALSE(a2Done) << "tenant bob was starved behind alice's backlog";

  const FinalResult resA2 = client.stream(idA2);
  EXPECT_FALSE(resA2.quarantined);
}

TEST(ServeTest, CachePersistsAcrossRestart) {
  ensureTinyGridRegistered();
  const std::string text = checkpointableScenario("warm", 301);
  const std::string dir = freshDir("warm");
  const DaemonConfig cfg = makeConfig(dir);

  auto harness = std::make_unique<DaemonHarness>(cfg);
  harness->start();
  FinalResult cold;
  {
    Client client = Client::connect(cfg.socketPath);
    SubmitRequest req;
    req.scenarioText = text;
    cold = client.stream(client.submit(req));
    // Cold pass: everything freshly simulated.
    for (const auto& row : cold.rows)
      EXPECT_GT(row.outcome.evalStats.simulated, 0u);
  }
  harness->kill();  // SIGKILL stand-in: no flush beyond the barrier writes

  harness = std::make_unique<DaemonHarness>(cfg);
  harness->start();
  Client client = Client::connect(cfg.socketPath);
  // The first daemon's submission history survived in the manifest.
  const std::vector<JobStatus> rows = client.status();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].state, "completed");

  SubmitRequest req;
  req.scenarioText = text;
  const FinalResult warm = client.stream(client.submit(req));
  // Warm pass against the restored cache: zero new simulations, every
  // evaluation answered by the persisted shared cache.
  ASSERT_EQ(warm.rows.size(), cold.rows.size());
  for (std::size_t i = 0; i < warm.rows.size(); ++i) {
    const auto& row = warm.rows[i];
    EXPECT_EQ(row.outcome.evalStats.simulated, 0u) << row.name;
    EXPECT_GT(row.outcome.evalStats.sharedHits, 0u) << row.name;
    // Same trajectory as the cold pass: cache hits change accounting, never
    // values.
    EXPECT_EQ(row.outcome.solved, cold.rows[i].outcome.solved) << row.name;
    EXPECT_EQ(row.outcome.bestValue, cold.rows[i].outcome.bestValue)
        << row.name;
    EXPECT_EQ(row.outcome.iterations, cold.rows[i].outcome.iterations)
        << row.name;
  }
}

TEST(ServeTest, SigkillMidRunResumesBitwise) {
  ensureTinyGridRegistered();
  // Big budget so the run is reliably still in flight when we kill it.
  const std::string text = checkpointableScenario("resume", 401, 320);
  const std::string expected = referenceRunReport(text);
  const std::string dir = freshDir("resume");
  const DaemonConfig cfg = makeConfig(dir);

  auto harness = std::make_unique<DaemonHarness>(cfg);
  harness->start();
  std::uint64_t id = 0;
  {
    Client client = Client::connect(cfg.socketPath);
    SubmitRequest req;
    req.scenarioText = text;
    bool journaled = false;
    id = client.submit(req, &journaled);
    ASSERT_TRUE(journaled);
    // Let it make progress past at least one journal barrier, then kill.
    for (;;) {
      const std::vector<JobStatus> rows = client.status(id);
      ASSERT_EQ(rows.size(), 1u);
      ASSERT_NE(rows[0].state, "failed") << rows[0].error;
      if (rows[0].rounds >= 2) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  harness->kill();

  harness = std::make_unique<DaemonHarness>(cfg);
  Client client = Client::connect(cfg.socketPath);
  {
    // Before ticking resumes it, the recovered submission reports as a
    // journaled runner mid-flight, not a restart from round zero.
    const std::vector<JobStatus> rows = harness->daemon().statusRows();
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_TRUE(rows[0].journaled);
    EXPECT_NE(rows[0].state, "completed");
  }
  harness->start();
  const FinalResult res = client.stream(id);
  EXPECT_EQ(res.report, expected)
      << "journal resume must replay to the uninterrupted run bitwise";
}

/// `journal` re-encoded with the first letter of its scenario name changed:
/// to a resume, the journal of another scenario fingerprint.
std::string withForeignFingerprint(const std::string& journal) {
  const io::CheckpointReader r("journal", journal);
  io::CheckpointWriter w(orch::kJournalKind);
  for (const std::string name :
       {"scenario", "progress", "shared_cache", "jobs", "events"}) {
    if (!r.hasSection(name)) continue;
    io::SectionReader s = r.section(name);
    std::string payload = s.raw(s.remaining());
    if (name == "scenario") payload[8] ^= 1;  // after the name's u64 length
    io::SectionWriter& out = w.section(name);
    for (const char c : payload) out.u8(static_cast<std::uint8_t>(c));
  }
  return w.finish();
}

TEST(ServeTest, UnrestorableJournalFailsItsSubmissionAndTheDaemonServesOn) {
  // A journal the restarted daemon cannot resume — an older container
  // version, or another scenario fingerprint, as a journal written by an
  // earlier build carries — fails its submission with "journal resume
  // failed", and the daemon goes on answering and running submissions.
  ensureTinyGridRegistered();
  const std::pair<std::string, std::string> cases[] = {
      {"old_version", "unsupported format version 1"},
      {"other_fingerprint", "scenario fingerprint mismatch on name"}};
  for (const auto& [tag, why] : cases) {
    SCOPED_TRACE(tag);
    const DaemonConfig cfg = makeConfig(freshDir("stale_journal_" + tag));
    std::uint64_t id = 0;
    {
      DaemonHarness harness(cfg);
      harness.start();
      {
        Client client = Client::connect(cfg.socketPath);
        SubmitRequest req;
        req.scenarioText = checkpointableScenario("stale", 1201, 320);
        bool journaled = false;
        id = client.submit(req, &journaled);
        ASSERT_TRUE(journaled);
        waitForRounds(client, id, 2);
      }
      harness.kill();
    }
    const std::string journal =
        cfg.stateDir + "/job-" + std::to_string(id) + ".journal";
    ASSERT_TRUE(std::filesystem::exists(journal));
    std::string bytes = readFile(journal);
    if (tag == "old_version")
      bytes[4] = 1;  // the header's format version, outside the checksum
    else
      bytes = withForeignFingerprint(bytes);
    writeFile(journal, bytes);

    DaemonHarness harness(cfg);
    harness.start();
    Client client = Client::connect(cfg.socketPath);
    JobStatus row;
    for (int i = 0; i < 5000; ++i) {
      const std::vector<JobStatus> rows = client.status(id);
      ASSERT_EQ(rows.size(), 1u);
      row = rows[0];
      if (row.state != "queued" && row.state != "running") break;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_EQ(row.state, "failed");
    EXPECT_NE(row.error.find("journal resume failed"), std::string::npos)
        << row.error;
    EXPECT_NE(row.error.find(why), std::string::npos) << row.error;

    SubmitRequest next;
    next.scenarioText = checkpointableScenario("after_stale", 1301, 16);
    const std::uint64_t nextId = client.submit(next);
    EXPECT_FALSE(client.stream(nextId).report.empty());
    const std::vector<JobStatus> rows = client.status(nextId);
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0].state, "completed");
  }
}

TEST(ServeTest, AdmissionRejectsAndDowngrades) {
  ensureTinyGridRegistered();
  const std::string dir = freshDir("admission");
  DaemonConfig cfg = makeConfig(dir);
  cfg.maxSubmissionBytes = 512;
  DaemonHarness harness(std::move(cfg));
  harness.start();

  Client client = Client::connect(dir + "/daemon.sock");

  // Malformed scenario text: a typed rejection naming the parse problem —
  // the connection stays usable afterwards.
  SubmitRequest bad;
  bad.scenarioText = "slice = banana\n";
  bad.source = "bad.scenario";
  EXPECT_THROW(client.submit(bad), ServeError);

  // Oversized submission: refused at admission, naming the limit.
  SubmitRequest fat;
  fat.scenarioText =
      "# " + std::string(1024, 'x') + "\n" + checkpointableScenario("fat", 501);
  try {
    client.submit(fat);
    FAIL() << "oversized submission was admitted";
  } catch (const ServeError& e) {
    EXPECT_NE(std::string(e.what()).find("512"), std::string::npos)
        << e.what();
  }

  // Unknown id: rejected, not a transport fault.
  EXPECT_THROW(client.stream(77), ServeError);
  EXPECT_THROW(client.cancel(77), ServeError);

  // A scenario whose strategy cannot checkpoint still runs — wantJournal
  // downgrades to journaled=false instead of refusing the submission.
  SubmitRequest nc;
  nc.scenarioText =
      "name = nocheckpoint\nthreads = 1\nslice = 8\nshards = 4\n"
      "[job]\nname = bo\ncircuit = tiny_grid\nstrategy = tree_bayes_opt\n"
      "seed = 601\nbudget = 24\nopt.init_samples = 6\n"
      "opt.candidate_pool = 32\n";
  nc.wantJournal = true;
  bool journaled = true;
  const std::uint64_t id = client.submit(nc, &journaled);
  EXPECT_FALSE(journaled);
  const FinalResult res = client.stream(id);
  EXPECT_FALSE(res.report.empty());

  // The admission failures above never became submissions.
  std::size_t known = 0;
  for (const JobStatus& row : client.status()) {
    (void)row;
    ++known;
  }
  EXPECT_EQ(known, 1u);
}

TEST(ServeTest, FuzzedSubmitBodiesAreAnsweredNeverFatal) {
  // Every prefix and single-byte substitutions of a valid submit request's
  // body, re-framed with a valid checksum so the payload codecs (not the
  // frame check) meet the damage. Each frame gets serve/accepted or
  // serve/rejected; the daemon never dies or hangs, and still admits a valid
  // submission afterwards. threads = 1 and the large budget cannot be
  // mutated into other numbers (no substitution below yields a digit).
  ensureTinyGridRegistered();
  const std::string dir = freshDir("fuzz");
  DaemonHarness harness(makeConfig(dir));
  harness.start();
  namespace wire = orch::wire;

  SubmitRequest valid;
  valid.tenant = "fuzz";
  valid.source = "fz";
  valid.wantJournal = false;
  valid.scenarioText =
      "threads = 1\nname = fz\nslice = 4\n[job]\nname = a\n"
      "circuit = tiny_grid\nstrategy = random_search\nseed = 1\n"
      "budget = 4000\n";
  io::SectionWriter encoded;
  writeSubmitRequest(encoded, valid);
  const std::string body = encoded.bytes();

  wire::FrameChannel ch = connectUnixSocket(dir + "/daemon.sock");
  const timeval timeout{30, 0};  // a hung daemon fails the test, not CI
  ASSERT_EQ(::setsockopt(ch.fd(), SOL_SOCKET, SO_RCVTIMEO, &timeout,
                         sizeof(timeout)),
            0);
  Client client = Client::connect(dir + "/daemon.sock");
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  const auto send = [&](const std::string& bytes) {
    io::CheckpointWriter msg = wire::makeMessage(wire::kMsgSubmit);
    io::SectionWriter& w = msg.section("body");
    for (const char c : bytes) w.u8(static_cast<std::uint8_t>(c));
    ch.send(msg);
    const io::CheckpointReader reply = ch.recv("fuzz");
    if (reply.kind() == wire::kMsgAccepted) {
      ++accepted;
      io::SectionReader r = reply.section("body");
      client.cancel(r.u64());
      return true;
    }
    EXPECT_EQ(reply.kind(), wire::kMsgRejected);
    ++rejected;
    return false;
  };

  for (std::size_t n = 0; n < body.size(); ++n)
    EXPECT_FALSE(send(body.substr(0, n))) << "prefix of " << n << " bytes";
  // Trailing bytes after a complete request are damage too.
  EXPECT_FALSE(send(body + '\0'));
  for (std::size_t i = 0; i < body.size(); ++i) {
    const auto b = static_cast<unsigned char>(body[i]);
    for (const unsigned char sub : {0x00, 0x01, 0x7f, 0x80, 0xff, b ^ 0x20}) {
      if (sub == b) continue;
      std::string mutant = body;
      mutant[i] = static_cast<char>(sub);
      send(mutant);
    }
  }
  // Both answers occur: the damage reaches past the length fields.
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(rejected, body.size());

  EXPECT_TRUE(send(body));
  EXPECT_EQ(client.status().size(), accepted);

  // A job that fails to build with any exception refuses its submission;
  // the daemon goes on serving.
  SubmitRequest broken = valid;
  broken.scenarioText =
      "threads = 1\n[job]\nname = b\ncircuit = broken_grid\n"
      "strategy = random_search\nbudget = 4\n";
  try {
    client.submit(broken);
    ADD_FAILURE() << "a job that failed to build was admitted";
  } catch (const ServeError& e) {
    // The reason names the job and its [job] line, as every build error does.
    EXPECT_NE(std::string(e.what()).find(
                  ":2: job \"b\": broken_grid: netlist unavailable"),
              std::string::npos)
        << e.what();
  }
  EXPECT_TRUE(send(body));
}

TEST(ServeTest, ZeroCountRlPolicyIsRefusedAndTheDaemonServesOn) {
  // An rl_policy with stride_divisor = 0 would divide by zero on its first
  // move, killing a daemon that admitted it (and, journaled, every restart
  // that recovered it); with hidden = 0 its policy would ignore its
  // observation. Admission refuses both, naming the job's line, and the
  // daemon goes on answering and running valid submissions.
  ensureTinyGridRegistered();
  const std::string dir = freshDir("zero_count_rl");
  DaemonHarness harness(makeConfig(dir));
  harness.start();
  Client client = Client::connect(dir + "/daemon.sock");

  for (const std::string key : {"stride_divisor", "hidden"}) {
    SubmitRequest bad;
    bad.source = "rl.scenario";
    bad.scenarioText =
        "name = rl\nthreads = 1\n[job]\nname = rl\ncircuit = tiny_grid\n"
        "strategy = rl_policy\nbudget = 40\nopt." +
        key + " = 0\n";
    try {
      client.submit(bad);
      ADD_FAILURE() << "opt." << key << " = 0 was admitted";
    } catch (const ServeError& e) {
      EXPECT_NE(std::string(e.what()).find(
                    "rl.scenario:3: job \"rl\": strategy option \"" + key +
                    "\": expected a count >= 1, got \"0\""),
                std::string::npos)
          << e.what();
    }
  }
  EXPECT_TRUE(client.status().empty());

  SubmitRequest ok;
  ok.scenarioText = checkpointableScenario("after_refusal", 911, 16);
  const std::uint64_t id = client.submit(ok);
  const FinalResult res = client.stream(id);
  EXPECT_FALSE(res.report.empty());
  ASSERT_EQ(client.status().size(), 1u);
  EXPECT_EQ(client.status()[0].state, "completed");
}

TEST(ServeTest, CancelAndShutdown) {
  ensureTinyGridRegistered();
  const std::string dir = freshDir("cancel");
  DaemonHarness harness(makeConfig(dir));
  harness.start();

  Client client = Client::connect(dir + "/daemon.sock");
  SubmitRequest slow;
  slow.scenarioText = checkpointableScenario("slow", 701, 640);
  const std::uint64_t id = client.submit(slow);
  client.cancel(id);
  const std::vector<JobStatus> rows = client.status(id);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].state, "cancelled");
  // Streaming a cancelled submission is a rejection, not a hang.
  EXPECT_THROW(client.stream(id), ServeError);

  client.shutdown();
  for (int i = 0; i < 500 && !harness.daemon().shutdownRequested(); ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  EXPECT_TRUE(harness.daemon().shutdownRequested());
}

TEST(ServeTest, CacheBudgetEvictsCompletedScopes) {
  ensureTinyGridRegistered();
  const std::string text = checkpointableScenario("evict", 801);
  const std::string dir = freshDir("evict");
  DaemonConfig cfg = makeConfig(dir);
  cfg.cacheBudgetBytes = 1;  // evict everything not pinned by an active run
  DaemonHarness harness(std::move(cfg));
  harness.start();

  Client client = Client::connect(dir + "/daemon.sock");
  SubmitRequest req;
  req.scenarioText = text;
  const FinalResult first = client.stream(client.submit(req));
  EXPECT_FALSE(first.quarantined);

  // The completion barrier evicted the (now inactive) scope, so an identical
  // resubmission simulates from scratch instead of hitting shared entries.
  const FinalResult second = client.stream(client.submit(req));
  for (const auto& row : second.rows)
    EXPECT_GT(row.outcome.evalStats.simulated, 0u) << row.name;
}

TEST(ServeTest, EvictionSurvivesRestart) {
  ensureTinyGridRegistered();
  const std::string text = checkpointableScenario("evict_restart", 811);
  const std::string dir = freshDir("evict_restart");
  DaemonConfig cfg = makeConfig(dir);
  cfg.cacheBudgetBytes = 1;

  auto harness = std::make_unique<DaemonHarness>(cfg);
  harness->start();
  {
    Client client = Client::connect(cfg.socketPath);
    SubmitRequest req;
    req.scenarioText = text;
    EXPECT_FALSE(client.stream(client.submit(req)).quarantined);
  }
  harness->kill();

  // The eviction was folded into a base, so replay cannot bring the
  // evicted scope's publishes back.
  harness = std::make_unique<DaemonHarness>(cfg);
  EXPECT_EQ(harness->daemon().cache().size(), 0u);
  harness->start();
  Client client = Client::connect(cfg.socketPath);
  SubmitRequest req;
  req.scenarioText = text;
  const FinalResult second = client.stream(client.submit(req));
  for (const auto& row : second.rows)
    EXPECT_GT(row.outcome.evalStats.simulated, 0u) << row.name;
}

TEST(ServeTest, AdmissionWriteFailureIsRejectedNotQueued) {
  ensureTinyGridRegistered();
  if (::access("/dev/full", W_OK) != 0) GTEST_SKIP() << "no /dev/full";
  const std::string dir = freshDir("admit_fail");
  const DaemonConfig cfg = makeConfig(dir);
  std::filesystem::create_directories(cfg.stateDir);
  const std::string logPath = cfg.stateDir + "/" + kStateLogFile;
  std::filesystem::create_symlink("/dev/full", logPath);

  auto harness = std::make_unique<DaemonHarness>(cfg);
  harness->start();
  {
    Client client = Client::connect(cfg.socketPath);
    SubmitRequest req;
    req.scenarioText = checkpointableScenario("admit_fail", 901);
    try {
      client.submit(req);
      FAIL() << "a submission whose admission record failed was accepted";
    } catch (const ServeError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("not admitted"), std::string::npos) << what;
      EXPECT_NE(what.find(logPath), std::string::npos) << what;
      EXPECT_EQ(what.find("malformed"), std::string::npos) << what;
    }
    // Never queued, and the daemon keeps serving.
    EXPECT_TRUE(client.status().empty());
  }
  harness->kill();

  // With a writable log the same daemon state admits it as submission 1.
  std::filesystem::remove(logPath);
  harness = std::make_unique<DaemonHarness>(cfg);
  harness->start();
  Client client = Client::connect(cfg.socketPath);
  SubmitRequest req;
  req.scenarioText = checkpointableScenario("admit_fail", 901);
  EXPECT_EQ(client.submit(req), 1u);
}

TEST(ServeTest, TornOrCorruptLogTailRecoversPreviousBarrier) {
  ensureTinyGridRegistered();
  const std::string text = checkpointableScenario("torn", 1001);
  const std::string dir = freshDir("torn");
  const DaemonConfig cfg = makeConfig(dir);

  // Cold run to completion, then a long second submission cancelled after a
  // round: the cancel record, small and publish-free, ends the log.
  auto harness = std::make_unique<DaemonHarness>(cfg);
  harness->start();
  {
    Client client = Client::connect(cfg.socketPath);
    SubmitRequest cold;
    cold.scenarioText = text;
    client.stream(client.submit(cold));
    SubmitRequest longRun;
    longRun.scenarioText = checkpointableScenario("torn_long", 1011, 640);
    const std::uint64_t id = client.submit(longRun);
    waitForRounds(client, id, 1);
    client.cancel(id);
  }
  harness->kill();

  const std::string logPath = cfg.stateDir + "/" + kStateLogFile;
  const std::string log = readFile(logPath);
  const std::vector<std::size_t> offsets = recordOffsets(log);
  ASSERT_GE(offsets.size(), 3u);
  const std::size_t last = offsets.back();
  ASSERT_LT(last, log.size());

  // A throwaway state dir holding only a (damaged) copy of the log.
  const std::string fuzzState = dir + "/fuzz_state";
  std::filesystem::create_directories(fuzzState);
  const std::string fuzzLog = fuzzState + "/" + kStateLogFile;
  writeFile(fuzzLog, log.substr(0, last));
  const std::string previous = recoveredDigest(fuzzState);
  writeFile(fuzzLog, log);
  ASSERT_NE(recoveredDigest(fuzzState), previous)
      << "the final record changed nothing; the fuzz would prove nothing";

  // Every cut inside the final record, and every flipped byte of it,
  // recovers the previous barrier's state and truncates the bad tail.
  for (std::size_t cut = last + 1; cut < log.size(); ++cut) {
    writeFile(fuzzLog, log.substr(0, cut));
    ASSERT_EQ(recoveredDigest(fuzzState), previous) << "cut at " << cut;
    ASSERT_EQ(fileSize(fuzzLog), last) << "cut at " << cut;
  }
  for (std::size_t at = last; at < log.size(); ++at) {
    std::string damaged = log;
    damaged[at] = static_cast<char>(damaged[at] ^ 0x5a);
    writeFile(fuzzLog, damaged);
    ASSERT_EQ(recoveredDigest(fuzzState), previous) << "flip at " << at;
    ASSERT_EQ(fileSize(fuzzLog), last) << "flip at " << at;
  }

  // End to end on two damaged copies: the daemon restarts into the previous
  // barrier, answers a warm resubmission with zero simulations, appends,
  // and restarts cleanly again.
  const std::size_t mid = last + (log.size() - last) / 2;
  for (const bool flip : {false, true}) {
    std::string damaged = log;
    if (flip)
      damaged[mid] = static_cast<char>(damaged[mid] ^ 0x01);
    else
      damaged.resize(mid);
    writeFile(logPath, damaged);
    harness = std::make_unique<DaemonHarness>(cfg);
    {
      const std::vector<JobStatus> rows = harness->daemon().statusRows();
      ASSERT_EQ(rows.size(), 2u);
      EXPECT_EQ(rows[0].state, "completed");
      EXPECT_EQ(rows[1].state, "queued");  // the cancel was lost with the tail
    }
    harness->start();
    {
      Client client = Client::connect(cfg.socketPath);
      SubmitRequest warm;
      warm.tenant = "warm";  // rotates with the requeued long run
      warm.scenarioText = text;
      const FinalResult res = client.stream(client.submit(warm));
      for (const auto& row : res.rows) {
        EXPECT_EQ(row.outcome.evalStats.simulated, 0u) << row.name;
        EXPECT_GT(row.outcome.evalStats.sharedHits, 0u) << row.name;
      }
      client.cancel(2);
    }
    harness->kill();
    harness = std::make_unique<DaemonHarness>(cfg);
    const std::vector<JobStatus> rows = harness->daemon().statusRows();
    ASSERT_EQ(rows.size(), 3u);
    EXPECT_EQ(rows[0].state, "completed");
    EXPECT_EQ(rows[1].state, "cancelled");
    EXPECT_EQ(rows[2].state, "completed");
    harness.reset();
    // Back to the undamaged history (folded into a base by now) for the
    // next variant.
    std::filesystem::remove(cfg.stateDir + "/" + kStateBaseFile);
  }
}

TEST(ServeTest, StaleGenerationLogIsIgnored) {
  ensureTinyGridRegistered();
  const std::string dir = freshDir("stale_gen");
  const DaemonConfig cfg = makeConfig(dir);
  const std::string logPath = cfg.stateDir + "/" + kStateLogFile;
  const auto runOne = [&](const std::string& text) {
    DaemonHarness harness(cfg);
    harness.start();
    Client client = Client::connect(cfg.socketPath);
    SubmitRequest req;
    req.scenarioText = text;
    client.stream(client.submit(req));
    harness.kill();
  };

  // Generation 0: one submission, logged; keep a copy of that log.
  runOne(checkpointableScenario("stale_a", 1201));
  const std::string staleLog = readFile(logPath);
  ASSERT_FALSE(staleLog.empty());
  // The restart folds it into base generation 1; a second submission logs
  // on top, and the next restart folds both into generation 2.
  runOne(checkpointableScenario("stale_b", 1211));
  std::vector<JobStatus> before;
  eval::SharedEvalCache::ShardCounters totals;
  {
    Daemon daemon(cfg);
    before = daemon.statusRows();
    totals = daemon.cache().totals();
  }
  ASSERT_EQ(before.size(), 2u);
  EXPECT_EQ(fileSize(logPath), 0u);

  // A crash between a base's rename and the log's reset leaves the old
  // generation's records next to the newer base: they must not replay.
  writeFile(logPath, staleLog);
  DaemonHarness harness(cfg);
  const std::vector<JobStatus> after = harness.daemon().statusRows();
  ASSERT_EQ(after.size(), before.size());
  for (std::size_t i = 0; i < after.size(); ++i) {
    EXPECT_EQ(after[i].id, before[i].id);
    EXPECT_EQ(after[i].state, before[i].state);
    EXPECT_EQ(after[i].rounds, before[i].rounds);
  }
  const auto now = harness.daemon().cache().totals();
  EXPECT_EQ(now.entries, totals.entries);
  EXPECT_EQ(now.hits, totals.hits);
  EXPECT_EQ(now.misses, totals.misses);
  EXPECT_EQ(now.inserts, totals.inserts);
  harness.start();
  Client client = Client::connect(cfg.socketPath);
  SubmitRequest req;
  req.scenarioText = checkpointableScenario("stale_c", 1221);
  EXPECT_EQ(client.submit(req), 3u) << "the stale log's meta was replayed";
}

TEST(ServeTest, ParentFormatStateDirAnswersWarmResubmission) {
  ensureTinyGridRegistered();
  const std::string text = checkpointableScenario("legacy", 1301);
  const std::string dir = freshDir("legacy");
  const DaemonConfig cfg = makeConfig(dir);
  std::filesystem::create_directories(cfg.stateDir);

  // What a daemon before the state log left behind: a `serve-cache` file
  // (cache + LRU) and a `serve-manifest` file (meta + jobs) holding one
  // completed submission.
  auto warmed = std::make_shared<eval::SharedEvalCache>(cfg.cacheShards);
  const std::vector<orch::JobResult> cold =
      orch::Scheduler(orch::parseScenarioText(text, "legacy"), warmed).run();
  {
    io::CheckpointWriter w("serve-cache");
    warmed->saveState(w.section("cache"));
    io::SectionWriter& lru = w.section("lru");
    lru.u64(1);
    lru.str("tiny_grid");
    w.writeFile(cfg.stateDir + "/shared.cache");
  }
  {
    io::CheckpointWriter w("serve-manifest");
    io::SectionWriter& meta = w.section("meta");
    meta.u64(2);         // next id
    meta.str("default");  // last served tenant
    io::SectionWriter& jobs = w.section("jobs");
    jobs.u64(1);
    jobs.u64(1);                // id
    jobs.str("default");        // tenant
    jobs.str("legacy.scenario");  // source
    jobs.str(text);             // scenario text
    jobs.boolean(true);         // wantJournal
    jobs.u8(2);                 // completed
    jobs.boolean(true);         // journaled
    jobs.boolean(true);         // usesGlobalCache
    jobs.str("legacy");         // scenario name
    jobs.u64(2);                // jobs
    jobs.u64(8);                // rounds
    jobs.u64(0);                // baseline shards
    jobs.u64(1);                // scopes
    jobs.str("tiny_grid");
    jobs.str("legacy report\n");  // report
    jobs.boolean(false);        // quarantined
    jobs.u64(0);                // rows
    jobs.str("");               // error
    w.writeFile(cfg.stateDir + "/daemon.manifest");
  }

  auto harness = std::make_unique<DaemonHarness>(cfg);
  harness->start();
  {
    Client client = Client::connect(cfg.socketPath);
    const std::vector<JobStatus> rows = client.status();
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0].state, "completed");
    EXPECT_EQ(rows[0].scenario, "legacy");
    EXPECT_EQ(client.stream(1).report, "legacy report\n");
    SubmitRequest req;
    req.scenarioText = text;
    const std::uint64_t id = client.submit(req);
    EXPECT_EQ(id, 2u);
    const FinalResult warm = client.stream(id);
    ASSERT_EQ(warm.rows.size(), cold.size());
    for (std::size_t i = 0; i < warm.rows.size(); ++i) {
      EXPECT_EQ(warm.rows[i].outcome.evalStats.simulated, 0u)
          << warm.rows[i].name;
      EXPECT_EQ(warm.rows[i].outcome.bestValue, cold[i].outcome.bestValue);
    }
  }
  harness->kill();
  // Read once: the pair was folded into a base and is gone.
  EXPECT_FALSE(std::filesystem::exists(cfg.stateDir + "/shared.cache"));
  EXPECT_FALSE(std::filesystem::exists(cfg.stateDir + "/daemon.manifest"));
  EXPECT_TRUE(std::filesystem::exists(cfg.stateDir + "/" + kStateBaseFile));
  Daemon restarted(cfg);
  EXPECT_EQ(restarted.statusRows().size(), 2u);
}

TEST(ServeTest, WarmRoundAppendsIndependentOfCacheSize) {
  ensureTinyGridRegistered();
  const std::string text = checkpointableScenario("bytes", 1401);
  // Bytes the warm resubmission appends to the log, with `filler` entries
  // of an unrelated scope already in the cache.
  const auto warmBytes = [&](std::size_t filler) -> std::uint64_t {
    const std::string dir = freshDir("bytes_" + std::to_string(filler));
    const DaemonConfig cfg = makeConfig(dir);
    std::filesystem::create_directories(cfg.stateDir);
    {
      eval::SharedEvalCache fill(cfg.cacheShards);
      const std::size_t scope = fill.scopeId("filler");
      for (std::size_t i = 0; i < filler; ++i) {
        core::EvalResult r;
        r.ok = true;
        r.measurements = {double(i), 1.0, 2.0, 3.0};
        fill.insert(scope, eval::EvalKey{{i, i % 7, i % 5}, 0}, r);
      }
      io::CheckpointWriter w("serve-cache");
      fill.saveState(w.section("cache"));
      io::SectionWriter& lru = w.section("lru");
      lru.u64(1);
      lru.str("filler");
      w.writeFile(cfg.stateDir + "/shared.cache");
    }
    DaemonHarness harness(cfg);
    harness.start();
    Client client = Client::connect(cfg.socketPath);
    SubmitRequest req;
    req.scenarioText = text;
    client.stream(client.submit(req));
    const std::string logPath = cfg.stateDir + "/" + kStateLogFile;
    const std::uint64_t before = fileSize(logPath);
    const FinalResult warm = client.stream(client.submit(req));
    for (const auto& row : warm.rows)
      EXPECT_EQ(row.outcome.evalStats.simulated, 0u) << row.name;
    EXPECT_EQ(harness.daemon().cache().entriesInScope(0), filler);
    return fileSize(logPath) - before;
  };
  const std::uint64_t small = warmBytes(500);
  const std::uint64_t large = warmBytes(2000);
  EXPECT_GT(small, 0u);
  EXPECT_EQ(small, large);
}

TEST(ServeTest, RestartRemovesJournalOfTerminalSubmission) {
  ensureTinyGridRegistered();
  const std::string dir = freshDir("stray_journal");
  const DaemonConfig cfg = makeConfig(dir);
  auto harness = std::make_unique<DaemonHarness>(cfg);
  harness->start();
  std::uint64_t id = 0;
  {
    Client client = Client::connect(cfg.socketPath);
    SubmitRequest req;
    req.scenarioText = checkpointableScenario("stray", 1501);
    bool journaled = false;
    id = client.submit(req, &journaled);
    ASSERT_TRUE(journaled);
    client.stream(id);
  }
  harness->kill();
  // A kill between the terminal record and the journal's removal leaves the
  // journal behind; the restart finishes the job.
  const std::string journal =
      cfg.stateDir + "/job-" + std::to_string(id) + ".journal";
  ASSERT_FALSE(std::filesystem::exists(journal));
  writeFile(journal, "left by a kill");
  Daemon restarted(cfg);
  EXPECT_FALSE(std::filesystem::exists(journal));
  ASSERT_EQ(restarted.statusRows().size(), 1u);
  EXPECT_EQ(restarted.statusRows()[0].state, "completed");
}

TEST(StateLogTest, ReplayKeepsScopeIdsAndShardPlacement) {
  const std::string dir = freshDir("scope_ids") + "/state";
  std::filesystem::create_directories(dir);
  // A scope registered at admission but not yet published, then another
  // scope's publishes: shard placement hashes the scope id, so replay must
  // register both in the original order, not in first-publish order.
  eval::SharedEvalCache cache(4);
  cache.scopeId("admitted_first");
  const std::size_t scope = cache.scopeId("published_first");
  orch::RoundObservation::Publish pub;
  pub.scope = "published_first";
  for (std::size_t i = 0; i < 32; ++i) {
    orch::wire::PublishEntry e;
    e.key = {{i, i + 1}, 0};
    e.result.ok = true;
    e.result.measurements = {double(i)};
    cache.insert(scope, e.key, e.result);
    pub.entries.push_back(e);
  }
  core::EvalResult out;
  cache.find(scope, pub.entries[3].key, out);
  {
    StateLog log(dir);
    eval::SharedEvalCache fresh(4);
    log.recover(fresh);
    SubmissionEntry entry;
    entry.id = 1;
    log.append({pub}, cache, DaemonMeta{}, entry);
  }
  eval::SharedEvalCache replayed(4);
  StateLog log(dir);
  const RecoveredState st = log.recover(replayed);
  EXPECT_TRUE(st.fold);
  ASSERT_EQ(st.jobs.size(), 1u);
  EXPECT_EQ(replayed.scopeNames(), cache.scopeNames());
  io::SectionWriter want, got;
  cache.saveState(want);
  replayed.saveState(got);
  EXPECT_EQ(got.bytes(), want.bytes());
  for (std::size_t s = 0; s < cache.shardCount(); ++s) {
    EXPECT_EQ(replayed.shardStats(s).entries, cache.shardStats(s).entries);
    EXPECT_EQ(replayed.shardStats(s).hits, cache.shardStats(s).hits);
    EXPECT_EQ(replayed.shardStats(s).inserts, cache.shardStats(s).inserts);
  }
}

TEST(StateLogTest, LogOutgrowingTheBaseFoldsIntoANewGeneration) {
  const std::string dir = freshDir("outgrow") + "/state";
  std::filesystem::create_directories(dir);
  const std::string logPath = dir + "/" + kStateLogFile;
  eval::SharedEvalCache cache(4);
  const std::size_t scope = cache.scopeId("bulk");
  StateLog log(dir);
  {
    eval::SharedEvalCache fresh(4);
    log.recover(fresh);
  }
  SubmissionEntry entry;
  entry.id = 1;
  entry.state = SubmissionEntry::State::kRunning;
  // Barrier records of 512 publishes each until the log passes the floor.
  std::size_t next = 0;
  while (!log.outgrewBase()) {
    ASSERT_LT(next, 200000u) << "the log never outgrew its floor";
    orch::RoundObservation::Publish pub;
    pub.scope = "bulk";
    for (int i = 0; i < 512; ++i, ++next) {
      orch::wire::PublishEntry e;
      e.key = {{next, next % 3}, 0};
      e.result.ok = true;
      e.result.measurements.assign(8, double(next));
      cache.insert(scope, e.key, e.result);
      pub.entries.push_back(std::move(e));
    }
    log.append({pub}, cache, DaemonMeta{}, entry);
  }
  EXPECT_GT(fileSize(logPath), 4u << 20);
  log.writeBase(cache, DaemonMeta{}, {&entry});
  EXPECT_EQ(fileSize(logPath), 0u);
  EXPECT_FALSE(log.outgrewBase());
  // One record on top of the new base; recovery replays it, not the folded
  // ones.
  entry.state = SubmissionEntry::State::kCompleted;
  log.append({}, cache, DaemonMeta{}, entry);
  eval::SharedEvalCache replayed(4);
  StateLog again(dir);
  const RecoveredState st = again.recover(replayed);
  ASSERT_EQ(st.jobs.size(), 1u);
  EXPECT_EQ(st.jobs[0].state, SubmissionEntry::State::kCompleted);
  io::SectionWriter want, got;
  cache.saveState(want);
  replayed.saveState(got);
  EXPECT_EQ(got.bytes(), want.bytes());
}

}  // namespace
}  // namespace trdse::serve
