// trdse_e2e — one pass of one end-to-end sizing workload per process.
//
//   trdse_e2e --workload NAME --seed N --mode pass|traced --out DIR
//             [--bakeoff FILE] [--trace-file FILE]
//
// Every pass starts in a fresh process, so it sees exactly the state a fresh
// `trdse run` / `trdse serve` process sees: the process-wide AssemblyPlan
// cache, the thread-local simulator workspaces and the shared evaluation
// cache are all cold. run.py launches the passes and aggregates them.
//
// The workloads drive the public entry points the CLI uses:
// orch::DistributedScheduler / orch::Scheduler (with JobSpec::makeProblem)
// and serve::Daemon + serve::Client. Layer timing is taken from outside the
// library: makeProblem wraps each job's SizingProblem::evaluate and
// evaluateBatch with timed counters (evaluateBatch stays empty iff it was
// empty, so batch widths and trajectories are unchanged), and the rest comes
// from EvalStats / JobResult rows, SharedEvalCache shard counters, the round
// hook, client progress events and /proc counters. The counters live in an
// anonymous shared mapping, so simulations run inside forked scheduler
// workers are counted too.
//
// --mode pass    the untraced end-to-end pass (cold run, then the same
//                scenario resubmitted against the warm cache);
// --mode traced  the same pass untraced as a reference, then the traced
//                replays that attribute time to layers (see README.md).
//
// Output: one JSON object on stdout with the rows digests, the metrics and
// the list of failed correctness checks; run.py prints the table. The traced
// mode also prints per-job host and simulator seconds on stderr.
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <new>
#include <numeric>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "circuits/registry.hpp"
#include "common/thread_pool.hpp"
#include "eval/shared_cache.hpp"
#include "io/checkpoint.hpp"
#include "orch/distributed.hpp"
#include "orch/scheduler.hpp"
#include "pvt/corners.hpp"
#include "serve/client.hpp"
#include "serve/daemon.hpp"
#include "sim/mosfet.hpp"
#include "sim/process.hpp"

namespace {

using namespace trdse;
namespace fs = std::filesystem;

std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
double secondsSince(std::int64_t t0) { return (nowNs() - t0) * 1e-9; }

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * (v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - lo);
}

/// Warm resubmissions repeat until this much time is spent (at least once)
/// and report their median: on host-light workloads one takes milliseconds.
constexpr double kWarmBudgetS = 0.5;

// ---- Simulator-call counters (shared with forked workers) -----------------

constexpr std::size_t kMaxJobs = 16;

struct JobSimCounters {
  std::atomic<std::uint64_t> scalarCalls{0};
  std::atomic<std::uint64_t> scalarNs{0};
  std::atomic<std::uint64_t> batchCalls{0};
  std::atomic<std::uint64_t> batchPoints{0};
  std::atomic<std::uint64_t> batchNs{0};
};

struct SharedCounters {
  std::atomic<std::int64_t> firstSimNs{0};  ///< first simulator call (0 = none)
  JobSimCounters jobs[kMaxJobs];
};
static_assert(std::atomic<std::uint64_t>::is_always_lock_free,
              "cross-process counters need lock-free atomics");

/// MAP_SHARED so that forked DistributedScheduler workers add into the same
/// counters as the coordinator. Lives for the whole process.
SharedCounters* gCounters = nullptr;
/// Whether the wrappers time and count (traced replays) or only stamp the
/// first simulator call (untraced passes: one relaxed load per call).
bool gCounting = false;

void resetCounters() {
  gCounters->~SharedCounters();
  new (gCounters) SharedCounters();
}

// ---- Spans, kept in memory and written as Chrome trace-event JSON ----------

class Tracer {
 public:
  explicit Tracer(std::int64_t originNs) : origin_(originNs), pid_(getpid()) {}

  void span(std::string name, std::string cat, std::int64_t t0,
            std::int64_t t1, std::string args = {}) {
    if (getpid() != pid_) return;  // spans of forked workers stay there
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({std::move(name), std::move(cat), t0, t1, threadId(),
                      std::move(args)});
  }

  void write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) throw std::runtime_error("cannot write " + path);
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    std::lock_guard<std::mutex> lock(mu_);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char buf[160];
      std::snprintf(buf, sizeof buf,
                    "\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,"
                    "\"dur\":%.3f",
                    s.tid, (s.t0 - origin_) / 1e3, (s.t1 - s.t0) / 1e3);
      out << "{\"name\":\"" << s.name << "\",\"cat\":\"" << s.cat << "\","
          << buf << ",\"args\":{" << s.args << "}}"
          << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    out << "]}\n";
  }

 private:
  struct Span {
    std::string name, cat;
    std::int64_t t0, t1;
    int tid;
    std::string args;
  };
  static int threadId() {
    static std::atomic<int> next{1};
    thread_local int id = next.fetch_add(1);
    return id;
  }

  std::int64_t origin_;
  pid_t pid_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

Tracer* gTracer = nullptr;  ///< non-null while a traced replay runs

/// Wrap a problem's simulator entry points with the benchmark's counters.
core::SizingProblem instrument(core::SizingProblem p, std::size_t job) {
  auto stamp = [](std::int64_t t) {
    std::int64_t expected = 0;
    if (gCounters->firstSimNs.load(std::memory_order_relaxed) == 0)
      gCounters->firstSimNs.compare_exchange_strong(expected, t);
  };
  p.evaluate = [inner = std::move(p.evaluate), job, stamp](
                   const linalg::Vector& x, const sim::PvtCorner& c) {
    const std::int64_t t0 = nowNs();
    stamp(t0);
    core::EvalResult r = inner(x, c);
    if (gCounting) {
      const std::int64_t t1 = nowNs();
      JobSimCounters& jc = gCounters->jobs[job];
      jc.scalarCalls.fetch_add(1, std::memory_order_relaxed);
      jc.scalarNs.fetch_add(t1 - t0, std::memory_order_relaxed);
      if (gTracer)
        gTracer->span("sim.scalar", "sim", t0, t1,
                      "\"job\":" + std::to_string(job));
    }
    return r;
  };
  if (p.evaluateBatch) {
    p.evaluateBatch = [inner = std::move(p.evaluateBatch), job, stamp](
                          const linalg::Vector* const* sizes,
                          const sim::PvtCorner* corners,
                          core::EvalResult* results, std::size_t count) {
      const std::int64_t t0 = nowNs();
      stamp(t0);
      inner(sizes, corners, results, count);
      if (gCounting) {
        const std::int64_t t1 = nowNs();
        JobSimCounters& jc = gCounters->jobs[job];
        jc.batchCalls.fetch_add(1, std::memory_order_relaxed);
        jc.batchPoints.fetch_add(count, std::memory_order_relaxed);
        jc.batchNs.fetch_add(t1 - t0, std::memory_order_relaxed);
        if (gTracer)
          gTracer->span("sim.batch", "sim", t0, t1,
                        "\"job\":" + std::to_string(job) +
                            ",\"points\":" + std::to_string(count));
      }
    };
  }
  return p;
}

// ---- Workloads --------------------------------------------------------------

/// Circuits the workloads size, registered so that scenario text (and hence
/// the serve daemon) can name them.
void registerCircuits() {
  auto& reg = circuits::Registry::global();
  reg.add({"e2e_opamp22_pvt9", "bsim22",
           "two-stage opamp on bsim22 over the Table III 9-corner set",
           [](const sim::ProcessCard& card, std::vector<sim::PvtCorner>) {
             return circuits::Registry::global().makeProblem(
                 "two_stage_opamp", pvt::nineCornerSet(card.nominalVdd),
                 card.name);
           }});
  // Table V's spec window (>= 8 GHz, <= -71 dBc/Hz, <= 0.40 mW) cannot hold
  // on all 9 corners — the human sizing spans 6.4-19 GHz across them — so
  // the PVT variant signs off against a window one sizing can meet
  // everywhere, tight enough that random search rarely finds it.
  reg.add({"e2e_ico_pvt9", "n5", "ICO on n5 over the 9-corner set",
           [](const sim::ProcessCard& card, std::vector<sim::PvtCorner>) {
             core::SizingProblem p = circuits::Registry::global().makeProblem(
                 "ico", pvt::nineCornerSet(card.nominalVdd), card.name);
             p.specs = {{"pnoise_dbc", core::SpecKind::kAtMost, -68.5},
                        {"freq_ghz", core::SpecKind::kAtLeast, 7.5},
                        {"power_mw", core::SpecKind::kAtMost, 0.50}};
             return p;
           }});
}

struct JobLine {
  std::string name, circuit, strategy;
  std::uint64_t seed;
  std::size_t budget;
  std::string extra;  ///< further `key = value` lines
};

/// The workload seed fixes the order of a fixed job set: job indices, thread
/// and worker placement and the shared-cache publish order. Job trajectories
/// (their own seeds) are fixed, so every workload seed does the same search
/// work — see README.md for why.
template <typename T>
void permute(std::vector<T>& v, std::uint64_t seed) {
  std::mt19937_64 rng(common::perTaskSeed(seed, 0xe2e));
  std::shuffle(v.begin(), v.end(), rng);
}

std::string render(const std::string& header, const std::vector<JobLine>& jobs) {
  std::ostringstream s;
  s << header;
  for (const JobLine& j : jobs) {
    s << "\n[job]\nname = " << j.name << "\ncircuit = " << j.circuit
      << "\nstrategy = " << j.strategy << "\nseed = " << j.seed
      << "\nbudget = " << j.budget << "\n" << j.extra;
  }
  return s.str();
}

std::string readFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream s;
  s << in.rdbuf();
  return s.str();
}

struct Workload {
  std::string name;
  std::string text;     ///< scenario text of the end-to-end pass
  /// The same jobs at the same total thread count with scheduler workers
  /// folded into threads. The serve daemon runs every job in-process
  /// (workers = 0, threads as written), so the daemon submission, the warm
  /// resubmission and the in-process replays all run this text.
  std::string inProcessText;
  bool serve = false;   ///< the end-to-end path is daemon + client
};

Workload makeWorkload(const std::string& name, std::uint64_t seed,
                      const std::string& bakeoffPath) {
  Workload w;
  w.name = name;
  if (name == "pvt9_trm") {
    std::vector<JobLine> jobs;
    for (std::uint64_t s : {5, 14, 2, 10})
      jobs.push_back({"trm_s" + std::to_string(s), "e2e_opamp22_pvt9",
                      "pvt_search", s, 2000, ""});
    permute(jobs, seed);
    w.text = render("name = pvt9_trm\nthreads = 4\nslice = 16\n", jobs);
  } else if (name == "ico_pvt") {
    std::vector<JobLine> jobs = {
        {"random", "e2e_ico_pvt9", "random_search", 5, 48, ""},
        {"rl_a2c", "e2e_ico_pvt9", "rl_policy", 5, 48,
         "opt.hidden = 16\nopt.n_steps = 8\n"},
        {"trm_drl", "e2e_ico_pvt9", "pvt_search", 1, 400, ""},
        {"custom_bo", "e2e_ico_pvt9", "tree_bayes_opt", 5, 48,
         "opt.init_samples = 10\nopt.candidate_pool = 100\n"},
    };
    permute(jobs, seed);
    w.text = render("name = ico_pvt\nthreads = 2\nworkers = 2\nslice = 16\n",
                    jobs);
    w.inProcessText = render("name = ico_pvt\nthreads = 4\nslice = 16\n", jobs);
  } else if (name == "bakeoff_serve") {
    // The committed Table I scenario, its [job] blocks in seed order.
    const std::string text = readFile(bakeoffPath);
    const std::size_t first = text.find("[job]");
    if (first == std::string::npos)
      throw std::runtime_error(bakeoffPath + ": no [job] block");
    std::vector<std::string> blocks;
    for (std::size_t at = first; at != std::string::npos;) {
      const std::size_t next = text.find("[job]", at + 5);
      blocks.push_back(text.substr(at, next == std::string::npos
                                           ? std::string::npos
                                           : next - at));
      at = next;
    }
    permute(blocks, seed);
    w.text = text.substr(0, first);
    for (std::string& b : blocks) {
      if (b.back() != '\n') b += '\n';
      w.text += b;
    }
    w.serve = true;
  } else {
    throw std::invalid_argument("unknown workload \"" + name + "\"");
  }
  if (w.inProcessText.empty()) w.inProcessText = w.text;  // no workers
  return w;
}

// ---- Result rows: digests and invariants ------------------------------------

std::uint64_t fnv(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (unsigned char c : s) h = (h ^ c) * 1099511628211ull;
  return h;
}

/// Canonical text of the deterministic row fields. `cacheBlind` drops what
/// depends on cache state (simulated/hit split, cached ledger flags,
/// publishes) so a warm resubmission can be compared with the cold run.
std::string canonicalRows(const std::vector<orch::JobResult>& rows,
                          bool cacheBlind) {
  std::ostringstream s;
  char buf[64];
  for (const orch::JobResult& r : rows) {
    const opt::StrategyOutcome& o = r.outcome;
    const eval::EvalStats& st = o.evalStats;
    std::snprintf(buf, sizeof buf, "%.17g", o.bestValue);
    s << r.name << ' ' << r.strategy << ' ' << r.seed << ' ' << r.budget << ' '
      << r.rounds << ' ' << r.failures << ' ' << r.quarantined << ' '
      << o.solved << ' ' << o.iterations << ' ' << buf << " req="
      << st.requests << " fail=" << st.failures;
    if (!cacheBlind)
      s << " sim=" << st.simulated << " hit=" << st.cacheHits
        << " shared=" << st.sharedHits << " att=" << st.attempts
        << " pub=" << r.published;
    s << " x=";
    for (double v : o.sizes) {
      std::snprintf(buf, sizeof buf, "%.17g,", v);
      s << buf;
    }
    s << " ledger=";
    for (const pvt::EdaBlock& b : o.ledger.blocks())
      s << b.cornerIndex << static_cast<int>(b.kind) << b.meetsSpec
        << (cacheBlind ? 0 : b.cached) << b.failed << ';';
    s << '\n';
  }
  return s.str();
}

std::string hex(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

struct Checks {
  std::vector<std::string> failed;
  void expect(bool ok, const std::string& what) {
    if (!ok) failed.push_back(what);
  }
};

/// Per-job accounting invariants of every row set the benchmark reads.
void checkRows(const std::vector<orch::JobResult>& rows, const std::string& tag,
               Checks& ck) {
  for (const orch::JobResult& r : rows) {
    const eval::EvalStats& s = r.outcome.evalStats;
    ck.expect(s.requests == s.simulated + s.cacheHits + s.sharedHits + s.failures,
              tag + " " + r.name + ": requests != simulated + hits + failures");
    ck.expect(r.outcome.ledger.totalBlocks() == r.outcome.iterations,
              tag + " " + r.name + ": ledger blocks != iterations");
    ck.expect(!r.quarantined, tag + " " + r.name + ": quarantined");
  }
}

/// The warm resubmission must replay the cold rows exactly, from the cache
/// alone: no simulation, every non-local-memo request a shared hit.
void checkWarm(const std::vector<orch::JobResult>& cold,
               const std::vector<orch::JobResult>& warm, const std::string& tag,
               Checks& ck) {
  ck.expect(canonicalRows(cold, true) == canonicalRows(warm, true),
            tag + ": warm rows differ from cold rows");
  for (std::size_t i = 0; i < warm.size() && i < cold.size(); ++i) {
    const eval::EvalStats& w = warm[i].outcome.evalStats;
    ck.expect(w.simulated == 0, tag + " " + warm[i].name + ": warm pass simulated");
    ck.expect(w.sharedHits + w.cacheHits + w.failures == w.requests &&
                  w.cacheHits == cold[i].outcome.evalStats.cacheHits,
              tag + " " + warm[i].name +
                  ": warm shared hits != blocks minus local memo hits");
  }
}

// ---- Process counters -------------------------------------------------------

double procField(const char* file, const char* key) {
  std::ifstream in(file);
  std::string line;
  const std::size_t n = std::strlen(key);
  while (std::getline(in, line))
    if (line.compare(0, n, key) == 0) return std::stod(line.substr(n));
  return 0.0;
}
double peakRssMb() { return procField("/proc/self/status", "VmHWM:") / 1024.0; }
double writtenBytes() { return procField("/proc/self/io", "wchar:"); }
double readBytes() { return procField("/proc/self/io", "rchar:"); }

double dirBytes(const std::string& dir) {
  double total = 0;
  std::error_code ec;
  for (const auto& e : fs::recursive_directory_iterator(dir, ec))
    if (e.is_regular_file(ec)) total += static_cast<double>(e.file_size(ec));
  return total;
}

// ---- Runs -------------------------------------------------------------------

struct Totals {
  std::size_t requests = 0, simulated = 0, cacheHits = 0, sharedHits = 0,
              attempts = 0, failures = 0, blocks = 0, solved = 0;
  double backendS = 0;
};
Totals totals(const std::vector<orch::JobResult>& rows) {
  Totals t;
  for (const orch::JobResult& r : rows) {
    const eval::EvalStats& s = r.outcome.evalStats;
    t.requests += s.requests;
    t.simulated += s.simulated;
    t.cacheHits += s.cacheHits;
    t.sharedHits += s.sharedHits;
    t.attempts += s.attempts;
    t.failures += s.failures;
    t.backendS += s.backendSeconds;
    t.blocks += r.outcome.iterations;
    t.solved += r.outcome.solved;
  }
  return t;
}

/// One cold run plus the warm resubmission — the end-to-end pass.
struct PassResult {
  double setupS = 0, wallS = 0, resubmitS = 0;
  /// Peak RSS after the cold run and the first resubmission (the repeats
  /// only sharpen resubmit_s and would otherwise grow the allocator's heap).
  double peakRss = 0;
  double admitMs = 0;  ///< serve only: submit() until the id returned
  std::vector<orch::JobResult> cold, warm;
  std::size_t workerEvents = 0;
  double stateBytes = 0;  ///< serve only: daemon state dir after the pass
  std::vector<double> progressGapsMs;  ///< serve only
};

/// One of the workload's scenario texts with every job's problem built by
/// the registry and wrapped with job j's counters.
orch::Scenario parse(const Workload& w, const std::string& text) {
  orch::Scenario sc = orch::parseScenarioText(text, w.name);
  if (sc.jobs.size() > kMaxJobs) throw std::runtime_error("too many jobs");
  for (std::size_t i = 0; i < sc.jobs.size(); ++i)
    sc.jobs[i].makeProblem = [circuit = sc.jobs[i].circuit, i] {
      return instrument(circuits::Registry::global().makeProblem(circuit), i);
    };
  return sc;
}

/// Copy a cache's entries and counters into a fresh one (the
/// DistributedScheduler keeps its master cache private).
std::shared_ptr<eval::SharedEvalCache> copyCache(const eval::SharedEvalCache& c) {
  io::CheckpointWriter w("e2e-cache");
  c.saveState(w.section("cache"));
  const io::CheckpointReader r("e2e-cache", w.finish());
  auto copy = std::make_shared<eval::SharedEvalCache>(c.shardCount());
  io::SectionReader sec = r.section("cache");
  copy->restoreState(sec);
  return copy;
}

/// Warm resubmission of the scheduler workloads: the same scenario on the
/// in-process Scheduler against the cold run's cache, at the same total
/// thread count.
std::vector<orch::JobResult> runWarm(const Workload& w,
                                     std::shared_ptr<eval::SharedEvalCache> cache,
                                     double& seconds) {
  orch::Scenario sc = parse(w, w.inProcessText);
  const std::int64_t t0 = nowNs();
  orch::Scheduler sched(std::move(sc), std::move(cache));
  std::vector<orch::JobResult> rows = sched.run();
  seconds = secondsSince(t0);
  return rows;
}

PassResult runSchedulerPass(const Workload& w) {
  PassResult p;
  resetCounters();
  const std::int64_t t0 = nowNs();
  orch::DistributedScheduler sched(parse(w, w.text));
  const std::int64_t t1 = nowNs();
  p.cold = sched.run();
  const std::int64_t t2 = nowNs();
  const std::int64_t first = gCounters->firstSimNs.load();
  p.setupS = ((first != 0 ? first : t1) - t0) * 1e-9;
  p.wallS = (t2 - t1) * 1e-9;
  p.workerEvents = sched.events().size();
  std::vector<double> warmS;
  for (double spent = 0; spent < kWarmBudgetS;) {
    double seconds = 0;
    p.warm = runWarm(w, copyCache(*sched.sharedCache()), seconds);
    if (warmS.empty()) p.peakRss = peakRssMb();
    warmS.push_back(seconds);
    spent += seconds;
  }
  p.resubmitS = percentile(warmS, 0.5);
  return p;
}

/// A daemon ticking on its own thread; joined (on every path) by the
/// destructor.
class DaemonThread {
 public:
  explicit DaemonThread(serve::DaemonConfig cfg)
      : daemon_(std::move(cfg)), thread_([this] {
          try {
            while (!stop_.load(std::memory_order_relaxed)) daemon_.tick(2);
          } catch (const std::exception& e) {
            // The client would wait forever for a reply: fail the pass now.
            std::fprintf(stderr, "trdse_e2e: daemon: %s\n", e.what());
            std::_Exit(1);
          }
        }) {}
  ~DaemonThread() {
    stop_.store(true, std::memory_order_relaxed);
    thread_.join();
  }
  DaemonThread(const DaemonThread&) = delete;
  DaemonThread& operator=(const DaemonThread&) = delete;

 private:
  serve::Daemon daemon_;
  std::atomic<bool> stop_{false};
  std::thread thread_;  // declared last: starts after the daemon exists
};

/// The serve path: a fresh in-process daemon, the scenario submitted through
/// serve::Client (as inProcessText, since the daemon runs without workers),
/// then resubmitted against the now-warm daemon cache.
PassResult runServePass(const Workload& w, const std::string& dir,
                        bool resubmit = true) {
  PassResult p;
  fs::remove_all(dir);
  fs::create_directories(dir);
  serve::DaemonConfig cfg;
  cfg.socketPath = dir + "/d.sock";
  cfg.stateDir = dir + "/state";
  const std::int64_t t0 = nowNs();
  {
    DaemonThread daemon(cfg);
    serve::Client client = serve::Client::connect(cfg.socketPath);
    serve::SubmitRequest req;
    req.scenarioText = w.inProcessText;
    req.source = w.name;
    // One submission streamed to its FinalResult; returns its seconds.
    auto submitAndStream = [&](bool cold) {
      const std::int64_t ta = nowNs();
      const std::uint64_t id = client.submit(req);
      const std::int64_t tb = nowNs();
      std::int64_t last = tb;
      const serve::FinalResult res =
          client.stream(id, [&](const serve::ProgressEvent& ev) {
            const std::int64_t t = nowNs();
            if (cold) p.progressGapsMs.push_back((t - last) * 1e-6);
            if (gTracer)
              gTracer->span("serve.progress", "serve", last, t,
                            "\"round\":" + std::to_string(ev.round));
            last = t;
          });
      const std::int64_t tc = nowNs();
      if (gTracer) {
        gTracer->span(cold ? "client.submit" : "client.resubmit", "serve", ta,
                      tb);
        gTracer->span("client.stream", "serve", tb, tc);
      }
      if (cold) {
        p.admitMs = (tb - ta) * 1e-6;
        p.setupS = (tb - t0) * 1e-9;
        p.wallS = (tc - tb) * 1e-9;
        p.cold = res.rows;
      } else {
        p.warm = res.rows;
      }
      return (tc - ta) * 1e-9;
    };
    submitAndStream(true);
    std::vector<double> warmS;
    for (double spent = 0; resubmit && spent < kWarmBudgetS;) {
      warmS.push_back(submitAndStream(false));
      if (warmS.size() == 1) p.peakRss = peakRssMb();
      spent += warmS.back();
    }
    p.resubmitS = percentile(warmS, 0.5);
  }
  p.stateBytes = dirBytes(cfg.stateDir);
  fs::remove_all(dir);
  return p;
}

PassResult runPass(const Workload& w, const std::string& dir) {
  return w.serve ? runServePass(w, dir) : runSchedulerPass(w);
}

// ---- Traced replays ---------------------------------------------------------

struct SimTotals {
  std::uint64_t scalarCalls = 0, batchCalls = 0, batchPoints = 0;
  double scalarS = 0, batchS = 0;
  std::uint64_t points() const { return scalarCalls + batchPoints; }
  double busyS() const { return scalarS + batchS; }
};
SimTotals simTotals(std::size_t job) {
  const JobSimCounters& c = gCounters->jobs[job];
  SimTotals t;
  t.scalarCalls = c.scalarCalls.load();
  t.batchCalls = c.batchCalls.load();
  t.batchPoints = c.batchPoints.load();
  t.scalarS = c.scalarNs.load() * 1e-9;
  t.batchS = c.batchNs.load() * 1e-9;
  return t;
}
SimTotals simTotals() {
  SimTotals t;
  for (std::size_t j = 0; j < kMaxJobs; ++j) {
    const SimTotals s = simTotals(j);
    t.scalarCalls += s.scalarCalls;
    t.batchCalls += s.batchCalls;
    t.batchPoints += s.batchPoints;
    t.scalarS += s.scalarS;
    t.batchS += s.batchS;
  }
  return t;
}

/// Cold in-process Scheduler replay at the workload's total thread count on
/// a fresh cache, with the round hook installed.
struct Replay {
  double buildS = 0, wallS = 0;
  std::vector<orch::JobResult> cold;
  std::vector<double> roundMs;
  std::vector<std::size_t> active;
  SimTotals sim;
  std::vector<SimTotals> perJob;
  std::shared_ptr<eval::SharedEvalCache> cache;
  eval::SharedEvalCache::ShardCounters cacheTotals;  ///< after the cold run
};

Replay replay(const Workload& w, bool traced) {
  Replay r;
  gCounting = traced;
  resetCounters();
  orch::Scenario sc = parse(w, w.inProcessText);
  const std::size_t jobs = sc.jobs.size();
  r.cache = std::make_shared<eval::SharedEvalCache>(sc.cacheShards);
  const std::int64_t pass0 = nowNs();
  {
    const std::int64_t t0 = nowNs();
    orch::Scheduler sched(sc, r.cache);
    r.buildS = secondsSince(t0);
    std::int64_t last = nowNs();
    sched.setRoundHook([&](const orch::RoundObservation& obs) {
      const std::int64_t t = nowNs();
      r.roundMs.push_back((t - last) * 1e-6);
      r.active.push_back(obs.jobs.size());
      if (gTracer)
        gTracer->span("round", "orch", last, t,
                      "\"round\":" + std::to_string(obs.round) +
                          ",\"active\":" + std::to_string(obs.jobs.size()));
      last = t;
    });
    const std::int64_t t1 = nowNs();
    r.cold = sched.run();
    r.wallS = secondsSince(t1);
  }
  if (gTracer) gTracer->span("pass.cold", "pass", pass0, nowNs());
  r.sim = simTotals();
  for (std::size_t j = 0; j < jobs; ++j) r.perJob.push_back(simTotals(j));
  r.cacheTotals = r.cache->totals();
  gCounting = false;
  return r;
}

/// The warm resubmission of a traced replay, on that replay's cache.
struct WarmReplay {
  std::vector<orch::JobResult> rows;
  SimTotals sim;
  std::size_t cacheHits = 0;  ///< shared-cache hits of the warm run alone
};

WarmReplay warmReplay(const Workload& w, const Replay& cold) {
  WarmReplay r;
  gCounting = true;
  resetCounters();
  const std::int64_t t0 = nowNs();
  double seconds = 0;
  r.rows = runWarm(w, cold.cache, seconds);
  if (gTracer) gTracer->span("pass.warm", "pass", t0, nowNs());
  r.sim = simTotals();
  r.cacheHits = cold.cache->totals().hits - cold.cacheTotals.hits;
  gCounting = false;
  return r;
}

/// Every job alone on one thread with a private cache: run() time minus the
/// job's simulator time is its strategy host time, exactly.
struct Alone {
  std::vector<std::string> names;
  std::vector<double> hostS, simS;
  std::vector<std::size_t> blocks;
};

Alone runAlone(const Workload& w) {
  Alone a;
  const orch::Scenario full = parse(w, w.text);
  gCounting = true;
  for (std::size_t j = 0; j < full.jobs.size(); ++j) {
    resetCounters();
    orch::Scenario sc = full;
    sc.threads = 1;
    sc.workers = 0;
    sc.jobs = {full.jobs[j]};  // its problem still counts into slot j
    orch::Scheduler sched(std::move(sc));
    const std::int64_t t0 = nowNs();
    if (gTracer) {
      std::int64_t last = t0;
      sched.setRoundHook([&](const orch::RoundObservation& obs) {
        const std::int64_t t = nowNs();
        gTracer->span("round", "orch", last, t,
                      "\"round\":" + std::to_string(obs.round));
        gTracer->span("job." + full.jobs[j].name, "strategy", last, t);
        last = t;
      });
    }
    const std::vector<orch::JobResult> rows = sched.run();
    const double wall = secondsSince(t0);
    if (gTracer)
      gTracer->span("pass.alone." + full.jobs[j].name, "pass", t0, nowNs());
    const double sim = simTotals(j).busyS();
    a.names.push_back(full.jobs[j].name);
    a.simS.push_back(sim);
    a.hostS.push_back(wall - sim);
    a.blocks.push_back(rows[0].outcome.iterations);
  }
  gCounting = false;
  return a;
}

// ---- Output -----------------------------------------------------------------

std::string quote(const std::string& v) {
  std::string q = "\"";
  for (char c : v) {
    if (c == '"' || c == '\\') q += '\\';
    q += c == '\n' ? ' ' : c;
  }
  return q + "\"";
}

class Json {
 public:
  void num(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    add(key, buf);
  }
  void str(const std::string& key, const std::string& v) { add(key, quote(v)); }
  void raw(const std::string& key, const std::string& v) { add(key, v); }
  std::string text() const { return "{" + body_ + "}"; }

 private:
  void add(const std::string& key, const std::string& v) {
    if (!body_.empty()) body_ += ",";
    body_ += "\"" + key + "\":" + v;
  }
  std::string body_;
};

double ratio(double a, double b) { return b == 0 ? 0.0 : a / b; }

void e2eMetrics(const PassResult& p, Json& m) {
  const Totals t = totals(p.cold);
  m.num("wall_s", p.wallS);
  m.num("resubmit_s", p.resubmitS);
  m.num("setup_s", p.setupS);
  m.num("sims_per_s", ratio(t.simulated, p.wallS));
  m.num("blocks_used", t.blocks);
  m.num("solved_jobs", t.solved);
  m.num("ok_frac", 1.0 - ratio(t.failures, t.requests));
  m.num("peak_rss_mb", p.peakRss);
}

int run(int argc, char** argv) {
  std::string workload, mode = "pass", out = ".bench_out", bakeoff,
                        traceFile;
  std::uint64_t seed = 1;
  if (argc % 2 == 0) throw std::invalid_argument("every flag takes one value");
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") workload = v;
    else if (k == "--seed") seed = std::stoull(v);
    else if (k == "--mode") mode = v;
    else if (k == "--out") out = v;
    else if (k == "--bakeoff") bakeoff = v;
    else if (k == "--trace-file") traceFile = v;
    else throw std::invalid_argument("unknown flag " + k);
  }
  if (mode != "pass" && mode != "traced")
    throw std::invalid_argument("--mode must be pass or traced");

  void* mem = mmap(nullptr, sizeof(SharedCounters), PROT_READ | PROT_WRITE,
                   MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  if (mem == MAP_FAILED) throw std::runtime_error("mmap failed");
  gCounters = new (mem) SharedCounters();
  registerCircuits();

  const Workload w = makeWorkload(workload, seed, bakeoff);
  const std::string dir = out + "/" + workload + "_" + std::to_string(getpid());
  Checks ck;
  Json result;

  // The end-to-end pass (untraced); the traced mode repeats it first as the
  // reference the replays must reproduce.
  const double wchar0 = writtenBytes(), rchar0 = readBytes();
  const PassResult p = runPass(w, dir);
  const double wchar1 = writtenBytes(), rchar1 = readBytes();
  checkRows(p.cold, "cold", ck);
  checkRows(p.warm, "warm", ck);
  checkWarm(p.cold, p.warm, "resubmit", ck);
  if (workload == "ico_pvt")
    ck.expect(p.workerEvents == 0, "ico_pvt: worker events (deaths/stalls)");
  result.str("rows", hex(fnv(canonicalRows(p.cold, false))));
  result.str("warm_rows", hex(fnv(canonicalRows(p.warm, false))));
  const Totals tc = totals(p.cold);
  result.num("requests", tc.requests);
  result.num("failures", tc.failures);

  Json m;
  if (mode == "pass") {
    e2eMetrics(p, m);
  } else {
    Tracer tracer(nowNs());
    // Tracing-overhead and serve-overhead baseline: the same cold replay
    // with the wrappers idle.
    const Replay off = replay(w, false);
    gTracer = &tracer;
    const Replay on = replay(w, true);
    const WarmReplay warm = warmReplay(w, on);
    const Alone alone = runAlone(w);
    // Serve-layer attribution with client spans: the scenario through a
    // fresh daemon once more (resubmitted too on bakeoff_serve).
    const PassResult sv = runServePass(w, dir + "_serve", w.serve);
    gTracer = nullptr;
    if (!traceFile.empty()) tracer.write(traceFile);

    const std::string coldRows = canonicalRows(p.cold, false);
    ck.expect(canonicalRows(off.cold, false) == coldRows,
              "untraced replay rows differ from the end-to-end rows");
    ck.expect(canonicalRows(on.cold, false) == coldRows,
              "traced replay rows differ from the end-to-end rows");
    ck.expect(canonicalRows(warm.rows, false) == canonicalRows(p.warm, false),
              "traced warm rows differ from the end-to-end warm rows");
    ck.expect(canonicalRows(sv.cold, false) == coldRows,
              "serve rows differ from the end-to-end rows");
    checkRows(on.cold, "replay", ck);
    for (std::size_t j = 0; j < on.cold.size(); ++j)
      ck.expect(on.perJob[j].points() == on.cold[j].outcome.evalStats.attempts,
                on.cold[j].name + ": sim.points != eval.attempts");
    const Totals t = totals(on.cold);
    const Totals tw = totals(warm.rows);
    ck.expect(t.backendS >= on.sim.busyS(), "eval.backend_s < sim.busy_s");
    ck.expect(warm.cacheHits == tw.sharedHits,
              "warm cache.hits != sum of eval.shared_hits");
    ck.expect(warm.sim.points() == 0, "warm pass simulated");

    double host = 0, sim = 0, hostMax = 0;
    std::size_t blocks = 0;
    for (std::size_t j = 0; j < alone.names.size(); ++j) {
      host += alone.hostS[j];
      sim += alone.simS[j];
      hostMax = std::max(hostMax, alone.hostS[j]);
      blocks += alone.blocks[j];
      std::fprintf(stderr, "# job %-10s host %.3f s  sim %.3f s  blocks %zu\n",
                   alone.names[j].c_str(), alone.hostS[j], alone.simS[j],
                   alone.blocks[j]);
    }
    const double activeMean =
        on.active.empty() ? 0.0
                          : std::accumulate(on.active.begin(), on.active.end(),
                                            0.0) / on.active.size();
    m.num("orch.rounds", on.roundMs.size());
    m.num("orch.round_ms.p50", percentile(on.roundMs, 0.5));
    m.num("orch.round_ms.p90", percentile(on.roundMs, 0.9));
    m.num("orch.active_jobs.mean", activeMean);
    m.num("orch.build_s", on.buildS);
    m.num("orch.worker_events", p.workerEvents);
    m.num("strategy.host_s", host);
    m.num("strategy.host_s.max_job", hostMax);
    m.num("strategy.host_share", ratio(host, host + sim));
    m.num("strategy.host_us_per_block", ratio(host, blocks) * 1e6);
    m.num("eval.requests", t.requests);
    m.num("eval.simulated", t.simulated);
    m.num("eval.cache_hits", t.cacheHits);
    m.num("eval.shared_hits", t.sharedHits);
    m.num("eval.attempts", t.attempts);
    m.num("eval.failures", t.failures);
    m.num("eval.backend_s", t.backendS);
    m.num("eval.dispatch_s", t.backendS - on.sim.busyS());
    const eval::SharedEvalCache::ShardCounters& cc = on.cacheTotals;
    m.num("cache.entries", cc.entries);
    m.num("cache.hits", cc.hits);
    m.num("cache.misses", cc.misses);
    m.num("cache.hit_rate", ratio(cc.hits, cc.hits + cc.misses));
    m.num("warm.cache.hits", warm.cacheHits);
    m.num("warm.eval.shared_hits", tw.sharedHits);
    m.num("warm.sim.points", warm.sim.points());
    m.num("sim.points", on.sim.points());
    m.num("sim.scalar_calls", on.sim.scalarCalls);
    m.num("sim.batch_calls", on.sim.batchCalls);
    m.num("sim.batched_frac", ratio(on.sim.batchPoints, on.sim.points()));
    m.num("sim.lane_fill", ratio(on.sim.batchPoints,
                                 on.sim.batchCalls * double(sim::kSimLanes)));
    m.num("sim.busy_s", on.sim.busyS());
    m.num("sim.scalar_ms_per_point",
          ratio(on.sim.scalarS, on.sim.scalarCalls) * 1e3);
    m.num("serve.admit_ms", sv.admitMs);
    m.num("serve.overhead_s", sv.wallS - off.wallS);
    m.num("serve.round_ms.p50", percentile(sv.progressGapsMs, 0.5));
    m.num("io.write_mb", (wchar1 - wchar0) / 1e6);
    m.num("io.read_mb", (rchar1 - rchar0) / 1e6);
    m.num("io.state_mb", sv.stateBytes / 1e6);
    m.num("trace.overhead_s", on.wallS - off.wallS);
    // Printed for reading only: no batch call happens on some workloads.
    std::fprintf(stderr, "# sim.batch_ms_per_point %.3f ms\n",
                 ratio(on.sim.batchS, on.sim.batchPoints) * 1e3);
  }
  result.raw("metrics", m.text());
  std::string failed;
  for (const std::string& f : ck.failed)
    failed += (failed.empty() ? "" : ",") + quote(f);
  result.raw("failed_checks", "[" + failed + "]");
  std::printf("%s\n", result.text().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "trdse_e2e: %s\n", e.what());
    return 1;
  }
}
