// trdse — the sizing toolbox CLI (subcommand surface of PR 9).
//
//   trdse run <scenario-file> [flags]   batch-run a scenario in-process
//   trdse resume <scenario-file> ...    run, continuing from its journal
//   trdse serve --socket ... --state-dir ...   the sizing daemon
//   trdse submit <scenario-file> --socket ...  run a scenario via a daemon
//   trdse status --socket ... [ID]      submission table of a daemon
//   trdse list                          known circuits and strategies
//
// `trdse run` is the batch runner: everything on stdout is deterministic — a
// function of the scenario file alone, identical for any --threads or
// --workers value (apart from the `# worker` attribution lines) and across
// SIGKILL + resume — so CI diffs a run against a committed expected summary.
// `trdse submit` streams the same bytes for the same scenario from a fresh
// daemon (serve/report.hpp is the single renderer behind both), with
// progress notes on stderr only.
//
// Exit codes (run/resume/submit): 0 all jobs completed; 1 error; 2 usage
// (including an unknown subcommand); 4 completed but at least one job
// quarantined (`# quarantined` line on stdout) — CI distinguishes "degraded
// but deterministic" from hard failure.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "circuits/registry.hpp"
#include "common/parse_util.hpp"
#include "opt/strategy.hpp"
#include "orch/scheduler.hpp"
#include "serve/client.hpp"
#include "serve/daemon.hpp"
#include "serve/report.hpp"

namespace {

using trdse::common::ArgCursor;

int usage() {
  std::fprintf(
      stderr,
      "usage: trdse run <scenario-file> [--threads N] [--workers N] "
      "[--slice N]\n"
      "                 [--no-shared-cache] [--journal PATH] [--resume]\n"
      "       trdse resume <scenario-file> [same flags; implies --resume]\n"
      "       trdse serve --socket PATH --state-dir DIR [--cache-shards N]\n"
      "                 [--cache-budget-bytes N] [--max-submission-bytes N]\n"
      "       trdse submit <scenario-file> --socket PATH [--tenant NAME]\n"
      "                 [--no-journal] [--detach]\n"
      "       trdse status --socket PATH [JOB-ID]\n"
      "       trdse list\n");
  return 2;
}

int cmdList() {
  std::printf("circuits (circuits::Registry):\n");
  const auto& reg = trdse::circuits::Registry::global();
  for (const std::string& name : reg.names())
    std::printf("  %-18s %s\n", name.c_str(), reg.at(name).description.c_str());
  std::printf("strategies (opt::makeStrategy):\n");
  for (const std::string& name : trdse::opt::strategyNames())
    std::printf("  %s\n", name.c_str());
  return 0;
}

bool fileExists(const std::string& path) {
  return std::ifstream(path).good();
}

std::string readWholeFile(const std::string& path) {
  std::ifstream in(path);
  if (!in.good())
    throw std::invalid_argument("cannot read scenario file \"" + path + "\"");
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

int cmdRun(ArgCursor args, bool resume) {
  using Clock = std::chrono::steady_clock;

  std::string path;
  bool haveThreads = false, haveWorkers = false, haveSlice = false;
  std::uint64_t threads = 0, workers = 0, slice = 0;
  bool noSharedCache = false;
  std::string journalPath;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> debugKills;
  try {
    std::string value;
    while (!args.done()) {
      if (args.flag("--no-shared-cache")) {
        noSharedCache = true;
      } else if (args.flag("--resume")) {
        resume = true;
      } else if (args.option("--journal", journalPath)) {
      } else if (args.option("--debug-kill-worker", value)) {
        const std::size_t colon = value.find(':');
        if (colon == std::string::npos)
          throw std::invalid_argument(
              "--debug-kill-worker expects WORKER:ROUND, got \"" + value +
              "\"");
        debugKills.emplace_back(
            trdse::common::parseU64("--debug-kill-worker worker",
                                    value.substr(0, colon)),
            trdse::common::parseU64("--debug-kill-worker round",
                                    value.substr(colon + 1)));
      } else if (args.optionU64("--threads", threads)) {
        haveThreads = true;
      } else if (args.optionU64("--workers", workers)) {
        haveWorkers = true;
      } else if (args.optionU64("--slice", slice)) {
        haveSlice = true;
      } else {
        const std::string arg = args.take();
        if (!arg.empty() && arg[0] == '-') {
          std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
          return usage();
        }
        if (!path.empty()) return usage();
        path = arg;
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "trdse run: %s\n", e.what());
    return usage();
  }
  if (path.empty()) return usage();

  try {
    trdse::orch::Scenario scenario = trdse::orch::loadScenarioFile(path);
    if (haveThreads) scenario.threads = threads;
    if (haveWorkers) scenario.workers = workers;
    if (haveSlice) scenario.slice = slice;  // 0 rejected by the Scheduler
    if (noSharedCache) scenario.sharedCache = false;
    if (!journalPath.empty()) scenario.journalPath = journalPath;
    if (resume && scenario.journalPath.empty()) {
      std::fprintf(stderr,
                   "trdse run: --resume needs a journal (set `journal =` in "
                   "the scenario or pass --journal PATH)\n");
      return usage();
    }

    // --workers only picks the transport that steps each round, so it is a
    // pure throughput knob.
    trdse::orch::Scheduler scheduler(std::move(scenario));
    for (const auto& [w, r] : debugKills) scheduler.debugKillWorker(w, r);
    // A missing journal under --resume is a cold start, not an error: the
    // process may have been killed before the first barrier ever wrote one.
    if (resume && fileExists(scheduler.scenario().journalPath))
      scheduler.resume(scheduler.scenario().journalPath);
    const auto t0 = Clock::now();
    const std::vector<trdse::orch::JobResult> results = scheduler.run();
    const double seconds =
        std::chrono::duration<double>(Clock::now() - t0).count();

    const trdse::orch::Scenario& sc = scheduler.scenario();
    trdse::serve::ReportInput report;
    report.scenarioName = sc.name;
    report.jobCount = sc.jobs.size();
    report.slice = sc.slice;
    report.sharedCacheOn = sc.sharedCache;
    report.results = results;
    if (const trdse::eval::SharedEvalCache* cache = scheduler.sharedCache()) {
      report.haveCache = true;
      for (std::size_t s = 0; s < cache->shardCount(); ++s) {
        const auto c = cache->shardStats(s);
        report.shards.push_back({c.entries, c.hits, c.misses, c.inserts});
      }
    }
    // Worker attribution (runs with workers only). Stdout carries only the
    // job->worker mapping, which is a pure function of the scenario (jobs
    // shard round-robin by index) — byte-identical across SIGKILL +
    // --resume. The merged probe tallies go to stderr: they count probes
    // merged by *this* process, so a resumed run reports only its own share.
    for (std::size_t w = 0; w < scheduler.workerReports().size(); ++w) {
      const auto& rep = scheduler.workerReports()[w];
      std::string names;
      for (const std::string& j : rep.jobs) {
        if (!names.empty()) names += ",";
        names += j;
      }
      report.workerJobs.push_back(names);
      std::fprintf(stderr, "# worker %zu: shared probes merged %zuh/%zum\n",
                   w, rep.sharedHits, rep.sharedMisses);
    }
    std::fputs(trdse::serve::renderReport(report).c_str(), stdout);
    // Lane evaluations the strategies' lookahead simulated and no request
    // ever asked for: `attempts` counts every lane evaluation, `simulated`
    // and `faults` only consumed requests. Harvests carry all three, so this
    // holds under --workers too.
    {
      std::size_t unused = 0;
      for (const trdse::orch::JobResult& jr : results) {
        const trdse::eval::EvalStats& st = jr.outcome.evalStats;
        if (st.attempts > st.simulated + st.faults)
          unused += st.attempts - st.simulated - st.faults;
      }
      std::fprintf(stderr,
                   "# lookahead: %zu lane evaluations simulated ahead and "
                   "never used\n",
                   unused);
    }
    for (const std::string& ev : scheduler.events())
      std::fprintf(stderr, "# event: %s\n", ev.c_str());
    std::fprintf(stderr, "[%.2fs wall, threads=%zu, workers=%zu]\n", seconds,
                 sc.threads, sc.workers);
    return trdse::serve::anyQuarantined(results) ? 4 : 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "trdse run: %s\n", e.what());
    return 1;
  }
}

int cmdServe(ArgCursor args) {
  trdse::serve::DaemonConfig cfg;
  try {
    std::uint64_t v = 0;
    while (!args.done()) {
      if (args.option("--socket", cfg.socketPath)) {
      } else if (args.option("--state-dir", cfg.stateDir)) {
      } else if (args.optionU64("--cache-shards", v)) {
        cfg.cacheShards = v;
      } else if (args.optionU64("--cache-budget-bytes", v)) {
        cfg.cacheBudgetBytes = v;
      } else if (args.optionU64("--max-submission-bytes", v)) {
        cfg.maxSubmissionBytes = v;
      } else {
        std::fprintf(stderr, "unknown flag: %s\n", args.take().c_str());
        return usage();
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "trdse serve: %s\n", e.what());
    return usage();
  }
  if (cfg.socketPath.empty() || cfg.stateDir.empty()) {
    std::fprintf(stderr,
                 "trdse serve: --socket and --state-dir are required\n");
    return usage();
  }
  try {
    trdse::serve::Daemon daemon(cfg);
    std::fprintf(stderr, "# serving on %s (state %s, %zu cache shards)\n",
                 cfg.socketPath.c_str(), cfg.stateDir.c_str(),
                 daemon.cache().shardCount());
    daemon.runUntilShutdown();
    std::fprintf(stderr, "# shutdown requested, exiting\n");
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "trdse serve: %s\n", e.what());
    return 1;
  }
}

int cmdSubmit(ArgCursor args) {
  std::string path, socketPath, tenant = "default";
  bool noJournal = false, detach = false;
  try {
    while (!args.done()) {
      if (args.option("--socket", socketPath)) {
      } else if (args.option("--tenant", tenant)) {
      } else if (args.flag("--no-journal")) {
        noJournal = true;
      } else if (args.flag("--detach")) {
        detach = true;
      } else {
        const std::string arg = args.take();
        if (!arg.empty() && arg[0] == '-') {
          std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
          return usage();
        }
        if (!path.empty()) return usage();
        path = arg;
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "trdse submit: %s\n", e.what());
    return usage();
  }
  if (path.empty() || socketPath.empty()) {
    std::fprintf(stderr,
                 "trdse submit: a scenario file and --socket are required\n");
    return usage();
  }
  try {
    trdse::serve::SubmitRequest req;
    req.tenant = tenant;
    req.scenarioText = readWholeFile(path);
    req.source = path;
    req.wantJournal = !noJournal;
    trdse::serve::Client client = trdse::serve::Client::connect(socketPath);
    bool journaled = false;
    const std::uint64_t id = client.submit(req, &journaled);
    std::fprintf(stderr, "# submitted as job %llu (%s)\n",
                 static_cast<unsigned long long>(id),
                 journaled ? "journaled" : "not crash-resumable");
    if (detach) {
      // The id is the contract here: `trdse status`/a later stream pick the
      // submission back up.
      std::printf("%llu\n", static_cast<unsigned long long>(id));
      return 0;
    }
    const trdse::serve::FinalResult res = client.stream(
        id, [](const trdse::serve::ProgressEvent& ev) {
          std::fprintf(stderr,
                       "# round %zu: %zu active, %zu done, %zu sims, "
                       "%zu shared hits, best %.4f\n",
                       ev.round, ev.jobsActive, ev.jobsDone, ev.simulated,
                       ev.sharedHits, ev.bestValue);
        });
    std::fputs(res.report.c_str(), stdout);
    return res.quarantined ? 4 : 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "trdse submit: %s\n", e.what());
    return 1;
  }
}

int cmdStatus(ArgCursor args) {
  std::string socketPath;
  std::uint64_t id = 0;
  try {
    while (!args.done()) {
      if (args.option("--socket", socketPath)) {
      } else {
        const std::string arg = args.take();
        if (!arg.empty() && arg[0] == '-') {
          std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
          return usage();
        }
        id = trdse::common::parseU64("JOB-ID", arg);
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "trdse status: %s\n", e.what());
    return usage();
  }
  if (socketPath.empty()) {
    std::fprintf(stderr, "trdse status: --socket is required\n");
    return usage();
  }
  try {
    trdse::serve::Client client = trdse::serve::Client::connect(socketPath);
    const std::vector<trdse::serve::JobStatus> rows = client.status(id);
    std::printf("%-6s %-10s %-18s %-10s %7s %5s %5s %-9s\n", "id", "tenant",
                "scenario", "state", "rounds", "jobs", "done", "journal");
    for (const auto& row : rows) {
      std::printf("%-6llu %-10s %-18s %-10s %7zu %5zu %5zu %-9s\n",
                  static_cast<unsigned long long>(row.id), row.tenant.c_str(),
                  row.scenario.c_str(), row.state.c_str(), row.rounds,
                  row.jobsTotal, row.jobsDone,
                  row.journaled ? "yes" : "no");
      if (!row.error.empty())
        std::printf("# error %llu: %s\n",
                    static_cast<unsigned long long>(row.id),
                    row.error.c_str());
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "trdse status: %s\n", e.what());
    return 1;
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  if (cmd == "run") return cmdRun(ArgCursor(argc, argv, 2), false);
  if (cmd == "resume") return cmdRun(ArgCursor(argc, argv, 2), true);
  if (cmd == "serve") return cmdServe(ArgCursor(argc, argv, 2));
  if (cmd == "submit") return cmdSubmit(ArgCursor(argc, argv, 2));
  if (cmd == "status") return cmdStatus(ArgCursor(argc, argv, 2));
  if (cmd == "list") return cmdList();
  if (cmd == "--help" || cmd == "-h" || cmd == "help") {
    usage();
    return 0;
  }
  std::fprintf(stderr, "trdse: unknown command \"%s\"\n", cmd.c_str());
  return usage();
}
