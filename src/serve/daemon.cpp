#include "serve/daemon.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <utility>

#include "io/checkpoint.hpp"
#include "orch/scenario.hpp"
#include "serve/report.hpp"

namespace trdse::serve {

namespace wire = trdse::orch::wire;

namespace {

bool fileExists(const std::string& path) {
  return std::ifstream(path).good();
}

// State names are part of the client protocol (JobStatus::state).
const char* submissionStateName(std::uint8_t state) {
  switch (state) {
    case 0: return "queued";
    case 1: return "running";
    case 2: return "completed";
    case 3: return "failed";
    case 4: return "cancelled";
    default: return "unknown";
  }
}

}  // namespace

std::string Daemon::journalPathFor(std::uint64_t id) const {
  return config_.stateDir + "/job-" + std::to_string(id) + ".journal";
}

Daemon::Daemon(DaemonConfig config)
    : config_(std::move(config)), log_(config_.stateDir) {
  if (config_.socketPath.empty())
    throw std::invalid_argument("serve::Daemon: socketPath must be set");
  if (config_.stateDir.empty())
    throw std::invalid_argument("serve::Daemon: stateDir must be set");
  ::mkdir(config_.stateDir.c_str(), 0777);  // EEXIST is fine; writes verify

  cache_ = std::make_shared<eval::SharedEvalCache>(config_.cacheShards);
  recover();

  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (config_.socketPath.size() >= sizeof(addr.sun_path))
    throw wire::WireError("serve::Daemon: socket path \"" +
                          config_.socketPath +
                          "\" exceeds the sockaddr_un limit");
  std::memcpy(addr.sun_path, config_.socketPath.c_str(),
              config_.socketPath.size() + 1);
  // A stale socket file from a killed daemon would make bind() fail; the
  // state files, not the socket, carry the daemon's identity.
  ::unlink(config_.socketPath.c_str());
  listenFd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listenFd_ < 0)
    throw wire::WireError(std::string("serve::Daemon: socket(): ") +
                          std::strerror(errno));
  if (::bind(listenFd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listenFd_, config_.backlog) != 0) {
    const int err = errno;
    ::close(listenFd_);
    listenFd_ = -1;
    throw wire::WireError("serve::Daemon: bind/listen(\"" +
                          config_.socketPath +
                          "\"): " + std::strerror(err));
  }
}

Daemon::~Daemon() {
  if (listenFd_ >= 0) ::close(listenFd_);
  ::unlink(config_.socketPath.c_str());
  // No flush: every durable transition was persisted when it happened, so
  // destruction is indistinguishable from SIGKILL — by design.
}

bool Daemon::busy() const {
  for (const auto& sub : submissions_)
    if (sub->state == Submission::State::kQueued ||
        sub->state == Submission::State::kRunning)
      return true;
  return false;
}

void Daemon::buildScheduler(Submission& sub) {
  orch::Scenario sc = orch::parseScenarioText(sub.scenarioText, sub.source);
  // Service policy: submissions run in-process (worker processes are the
  // *daemon's* deployment axis, not the client's), journals are daemon-owned
  // files, and the journal never embeds the global cache — the state log
  // records each barrier's publishes for all submissions together.
  sc.workers = 0;
  sc.journalPath.clear();
  sc.journalCache = false;
  sub.usesGlobalCache = sc.sharedCache;
  sub.scenarioName = sc.name;
  sub.jobsTotal = sc.jobs.size();
  sub.scopes.clear();
  for (const orch::JobSpec& spec : sc.jobs) {
    // Text submissions never carry makeProblem, so the scope resolution of
    // orch::buildJobs reduces to cacheScope-or-circuit.
    const std::string scope =
        !spec.cacheScope.empty() ? spec.cacheScope : spec.circuit;
    if (!scope.empty() &&
        std::find(sub.scopes.begin(), sub.scopes.end(), scope) ==
            sub.scopes.end())
      sub.scopes.push_back(scope);
  }
  sub.sched = std::make_unique<orch::Scheduler>(
      std::move(sc), sub.usesGlobalCache ? cache_ : nullptr);
  bool journal = sub.wantJournal;
  for (std::size_t i = 0; i < sub.jobsTotal && journal; ++i)
    if (!sub.sched->strategy(i).supportsCheckpoint()) journal = false;
  if (journal) sub.sched->enableJournal(journalPathFor(sub.id));
  sub.journaled = journal;
  Submission* self = &sub;  // stable: submissions_ stores unique_ptrs
  sub.sched->setRoundHook([self](const orch::RoundObservation& obs) {
    self->lastObs = obs;
    self->haveObs = true;
    self->roundsCompleted = obs.round;
  });
}

// ---- Request handling ----------------------------------------------------

void Daemon::reject(Connection& conn, const std::string& reason) {
  io::CheckpointWriter msg = wire::makeMessage(wire::kMsgRejected);
  msg.section("body").str(reason);
  conn.channel.send(msg);
}

void Daemon::sendOk(Connection& conn) {
  io::CheckpointWriter msg = wire::makeMessage(wire::kMsgOk);
  msg.section("body").u64(0);
  conn.channel.send(msg);
}

void Daemon::handleFrame(Connection& conn, io::CheckpointReader& frame) {
  const std::string& kind = frame.kind();
  if (kind == wire::kMsgSubmit) {
    handleSubmit(conn, frame);
  } else if (kind == wire::kMsgStatus) {
    handleStatus(conn, frame);
  } else if (kind == wire::kMsgStream) {
    handleStream(conn, frame);
  } else if (kind == wire::kMsgCancel) {
    handleCancel(conn, frame);
  } else if (kind == wire::kMsgServeShutdown) {
    shutdownRequested_ = true;  // every transition is already durable
    sendOk(conn);
  } else {
    reject(conn, "serve daemon: unexpected message kind " + kind);
  }
}

void Daemon::handleSubmit(Connection& conn, io::CheckpointReader& frame) {
  io::SectionReader body = frame.section("body");
  const SubmitRequest req = readSubmitRequest(body);
  body.expectEnd();
  if (req.scenarioText.size() > config_.maxSubmissionBytes) {
    reject(conn, "submission of " + std::to_string(req.scenarioText.size()) +
                     " bytes exceeds the admission limit of " +
                     std::to_string(config_.maxSubmissionBytes) +
                     " bytes (daemon cap; the transport itself refuses "
                     "frames over wire::kMaxFrameBytes)");
    return;
  }
  auto sub = std::make_unique<Submission>();
  sub->tenant = req.tenant;
  sub->source = req.source;
  sub->scenarioText = req.scenarioText;
  sub->wantJournal = req.wantJournal;
  sub->id = meta_.nextId;
  try {
    buildScheduler(*sub);
  } catch (const std::exception& e) {
    // Whatever building the jobs throws refuses this submission only.
    reject(conn, e.what());
    return;
  }
  // Report baseline: counters the submission starts from. On a fresh daemon
  // these are all zero and the rendered deltas equal a standalone run's
  // absolute counters — the submit-vs-run byte-identity contract.
  if (sub->usesGlobalCache) {
    sub->baseline.reserve(cache_->shardCount());
    for (std::size_t s = 0; s < cache_->shardCount(); ++s)
      sub->baseline.push_back(cache_->shardStats(s));
  }
  // The submission — its id spent, its scopes touched — becomes visible
  // only once its admission record is durable; a failed write is answered
  // as what it is and leaves no trace.
  DaemonMeta next = meta_;
  ++next.nextId;
  for (const std::string& scope : sub->scopes) touchScope(next.lru, scope);
  try {
    log_.append({}, *cache_, next, *sub);
  } catch (const io::CheckpointError& e) {
    reject(conn, std::string("submission not admitted: ") + e.what());
    return;
  }
  meta_ = std::move(next);
  Submission& ref = *sub;
  submissions_.push_back(std::move(sub));
  io::CheckpointWriter msg = wire::makeMessage(wire::kMsgAccepted);
  io::SectionWriter& out = msg.section("body");
  out.u64(ref.id);
  out.boolean(ref.journaled);
  conn.channel.send(msg);
}

void Daemon::handleStatus(Connection& conn, io::CheckpointReader& frame) {
  io::SectionReader body = frame.section("body");
  const std::uint64_t id = body.u64();
  body.expectEnd();
  std::vector<JobStatus> rows;
  for (const auto& sub : submissions_)
    if (id == 0 || sub->id == id) rows.push_back(statusRowFor(*sub));
  if (id != 0 && rows.empty()) {
    reject(conn, "unknown submission id " + std::to_string(id));
    return;
  }
  io::CheckpointWriter msg = wire::makeMessage(wire::kMsgStatusReply);
  io::SectionWriter& out = msg.section("body");
  out.u64(rows.size());
  for (const JobStatus& row : rows) writeJobStatus(out, row);
  conn.channel.send(msg);
}

void Daemon::handleStream(Connection& conn, io::CheckpointReader& frame) {
  io::SectionReader body = frame.section("body");
  const std::uint64_t id = body.u64();
  body.expectEnd();
  Submission* sub = nullptr;
  for (const auto& s : submissions_)
    if (s->id == id) sub = s.get();
  if (sub == nullptr) {
    reject(conn, "unknown submission id " + std::to_string(id));
    return;
  }
  switch (sub->state) {
    case Submission::State::kCompleted: {
      io::CheckpointWriter msg = wire::makeMessage(wire::kMsgResult);
      writeFinalResult(msg.section("body"), finalResultFor(*sub));
      conn.channel.send(msg);
      return;
    }
    case Submission::State::kFailed:
      reject(conn, "submission " + std::to_string(id) +
                       " failed: " + sub->error);
      return;
    case Submission::State::kCancelled:
      reject(conn, "submission " + std::to_string(id) + " was cancelled");
      return;
    default:
      conn.streamingId = id;  // progress flows from the next barrier on
  }
}

void Daemon::handleCancel(Connection& conn, io::CheckpointReader& frame) {
  io::SectionReader body = frame.section("body");
  const std::uint64_t id = body.u64();
  body.expectEnd();
  Submission* sub = nullptr;
  for (const auto& s : submissions_)
    if (s->id == id) sub = s.get();
  if (sub == nullptr) {
    reject(conn, "unknown submission id " + std::to_string(id));
    return;
  }
  if (sub->state != Submission::State::kQueued &&
      sub->state != Submission::State::kRunning) {
    reject(conn, "submission " + std::to_string(id) + " is already " +
                     submissionStateName(
                         static_cast<std::uint8_t>(sub->state)));
    return;
  }
  // Same rule as admission: the cancel takes effect once it is durable.
  SubmissionEntry cancelled = *sub;
  cancelled.state = Submission::State::kCancelled;
  try {
    log_.append({}, *cache_, meta_, cancelled);
  } catch (const io::CheckpointError& e) {
    reject(conn, "submission " + std::to_string(id) +
                     " not cancelled: " + e.what());
    return;
  }
  sub->state = Submission::State::kCancelled;
  sub->sched.reset();
  if (sub->journaled) std::remove(journalPathFor(sub->id).c_str());
  sendOk(conn);
  notifyTerminal(*sub);
}

// ---- Progress / results --------------------------------------------------

JobStatus Daemon::statusRowFor(const Submission& sub) const {
  JobStatus row;
  row.id = sub.id;
  row.tenant = sub.tenant;
  row.scenario = sub.scenarioName;
  row.state =
      submissionStateName(static_cast<std::uint8_t>(sub.state));
  row.journaled = sub.journaled;
  row.rounds = sub.roundsCompleted;
  row.jobsTotal = sub.jobsTotal;
  row.quarantined = sub.quarantined;
  row.error = sub.error;
  if (sub.state == Submission::State::kCompleted) {
    row.jobsDone = sub.jobsTotal;
  } else if (sub.haveObs) {
    std::size_t doneInObs = 0;
    for (const auto& p : sub.lastObs.jobs)
      if (p.finished || p.quarantined) ++doneInObs;
    row.jobsDone = sub.jobsTotal - sub.lastObs.jobs.size() + doneInObs;
  }
  return row;
}

ProgressEvent Daemon::progressEventFor(const Submission& sub) const {
  ProgressEvent ev;
  ev.id = sub.id;
  ev.round = sub.lastObs.round;
  ev.jobsActive = sub.lastObs.jobs.size();
  std::size_t doneInObs = 0;
  bool first = true;
  for (const auto& p : sub.lastObs.jobs) {
    if (p.finished || p.quarantined) ++doneInObs;
    ev.sharedHits += p.sharedHits;
    ev.simulated += p.simulated;
    if (first || p.bestValue < ev.bestValue) ev.bestValue = p.bestValue;
    first = false;
  }
  ev.jobsDone = sub.jobsTotal - sub.lastObs.jobs.size() + doneInObs;
  return ev;
}

FinalResult Daemon::finalResultFor(const Submission& sub) const {
  FinalResult res;
  res.id = sub.id;
  res.quarantined = sub.quarantined;
  res.report = sub.report;
  res.rows = sub.rows;
  return res;
}

void Daemon::notifyProgress(const Submission& sub) {
  if (!sub.haveObs) return;
  for (Connection& conn : connections_) {
    if (conn.streamingId != sub.id || !conn.channel.valid()) continue;
    try {
      io::CheckpointWriter msg = wire::makeMessage(wire::kMsgProgress);
      writeProgressEvent(msg.section("body"), progressEventFor(sub));
      conn.channel.send(msg);
    } catch (const wire::WireError&) {
      conn.channel.close();  // dead subscriber; reaped next tick
    }
  }
}

void Daemon::notifyTerminal(Submission& sub) {
  for (Connection& conn : connections_) {
    if (conn.streamingId != sub.id || !conn.channel.valid()) continue;
    try {
      if (sub.state == Submission::State::kCompleted) {
        io::CheckpointWriter msg = wire::makeMessage(wire::kMsgResult);
        writeFinalResult(msg.section("body"), finalResultFor(sub));
        conn.channel.send(msg);
      } else if (sub.state == Submission::State::kFailed) {
        reject(conn, "submission " + std::to_string(sub.id) +
                         " failed: " + sub.error);
      } else {
        reject(conn, "submission " + std::to_string(sub.id) +
                         " was cancelled");
      }
    } catch (const wire::WireError&) {
      conn.channel.close();
    }
    conn.streamingId = 0;
  }
}

// ---- Fair-share scheduling ----------------------------------------------

Daemon::Submission* Daemon::pickNext() {
  const auto active = [](const Submission& s) {
    return s.state == Submission::State::kQueued ||
           s.state == Submission::State::kRunning;
  };
  // Tenants in first-admission order; submission ids are admission order.
  std::vector<std::string> tenants;
  for (const auto& sub : submissions_)
    if (active(*sub) &&
        std::find(tenants.begin(), tenants.end(), sub->tenant) ==
            tenants.end())
      tenants.push_back(sub->tenant);
  if (tenants.empty()) return nullptr;
  // Continue the rotation after the tenant served last tick — this is the
  // fair budget slice: one scheduler round (slice * jobs blocks) per tenant
  // per rotation, whatever each tenant's queue depth is.
  std::size_t pick = 0;
  const auto it =
      std::find(tenants.begin(), tenants.end(), meta_.lastServedTenant);
  if (it != tenants.end())
    pick = (static_cast<std::size_t>(it - tenants.begin()) + 1) %
           tenants.size();
  meta_.lastServedTenant = tenants[pick];
  for (const auto& sub : submissions_)
    if (active(*sub) && sub->tenant == tenants[pick]) return sub.get();
  return nullptr;  // unreachable: the tenant list came from active subs
}

void Daemon::advance(Submission& sub) {
  if (sub.state == Submission::State::kQueued)
    sub.state = Submission::State::kRunning;
  if (sub.resumePending) {
    sub.resumePending = false;
    try {
      sub.sched->resume(journalPathFor(sub.id));
    } catch (const std::exception& e) {
      fail(sub, std::string("journal resume failed: ") + e.what());
      return;
    }
  }
  std::vector<orch::JobResult> rows;
  try {
    rows = sub.sched->run(1);
  } catch (const std::exception& e) {
    fail(sub, e.what());
    return;
  }
  // Barrier persistence, in dependency order: the scheduler already wrote
  // the journal inside run(); now the record of the round's publishes and
  // the submission's entry. A SIGKILL before the record is durable leaves
  // the journal one round ahead, which costs at most that round's publishes
  // (values are unaffected — backends are pure).
  for (const std::string& scope : sub.scopes) touchScope(meta_.lru, scope);
  if (sub.sched->completed()) {
    finish(sub, std::move(rows));
    return;
  }
  persist(sub);
  notifyProgress(sub);
}

void Daemon::finish(Submission& sub, std::vector<orch::JobResult> rows) {
  const orch::Scenario& sc = sub.sched->scenario();
  ReportInput in;
  in.scenarioName = sub.scenarioName;
  in.jobCount = sub.jobsTotal;
  in.slice = sc.slice;
  in.sharedCacheOn = sc.sharedCache;
  in.results = rows;
  if (sub.usesGlobalCache) {
    in.haveCache = true;
    in.shards.reserve(cache_->shardCount());
    for (std::size_t s = 0; s < cache_->shardCount(); ++s) {
      const auto now = cache_->shardStats(s);
      const auto base = s < sub.baseline.size()
                            ? sub.baseline[s]
                            : eval::SharedEvalCache::ShardCounters{};
      ShardLine d;
      // Saturating deltas: hits/misses/inserts are monotonic, but `entries`
      // can dip below the baseline when another scope was evicted while
      // this submission ran.
      d.entries = now.entries >= base.entries ? now.entries - base.entries : 0;
      d.hits = now.hits - base.hits;
      d.misses = now.misses - base.misses;
      d.inserts = now.inserts - base.inserts;
      in.shards.push_back(d);
    }
  }
  sub.report = renderReport(in);
  sub.quarantined = anyQuarantined(rows);
  sub.rows = std::move(rows);
  sub.state = Submission::State::kCompleted;
  sub.sched.reset();
  sub.haveObs = false;
  // Budget pass at the completion barrier only — a deterministic point, and
  // the only one where a whole scope's usefulness can change. Scopes of
  // still-active submissions are pinned.
  std::vector<std::string> pinned;
  for (const auto& other : submissions_)
    if (other->state == Submission::State::kQueued ||
        other->state == Submission::State::kRunning)
      for (const std::string& scope : other->scopes)
        pinned.push_back(scope);
  const std::vector<std::string> evicted =
      enforceBudget(*cache_, meta_.lru, config_.cacheBudgetBytes, pinned);
  for (const std::string& scope : evicted)
    meta_.lru.erase(std::remove(meta_.lru.begin(), meta_.lru.end(), scope),
                    meta_.lru.end());
  // An eviction is folded into a new base (which holds this round's
  // publishes and the completed entry too), so replay never re-inserts an
  // evicted scope's entries; otherwise the completion is one record.
  if (evicted.empty()) {
    persist(sub);
  } else {
    writeBase();
    sub.lastObs = {};
  }
  // Only now that the terminal state is durable: a kill before this line
  // resumes the journal, which completes at once.
  if (sub.journaled) std::remove(journalPathFor(sub.id).c_str());
  notifyTerminal(sub);
}

void Daemon::fail(Submission& sub, const std::string& error) {
  sub.state = Submission::State::kFailed;
  sub.error = error;
  sub.sched.reset();
  sub.haveObs = false;
  persist(sub);
  if (sub.journaled) std::remove(journalPathFor(sub.id).c_str());
  notifyTerminal(sub);
}

// ---- Service loop --------------------------------------------------------

bool Daemon::tick(int pollTimeoutMs) {
  bool didWork = false;
  // Reap connections closed by notify failures or transport errors.
  connections_.erase(
      std::remove_if(connections_.begin(), connections_.end(),
                     [](const Connection& c) { return !c.channel.valid(); }),
      connections_.end());

  std::vector<pollfd> fds;
  fds.reserve(connections_.size() + 1);
  fds.push_back(pollfd{listenFd_, POLLIN, 0});
  for (const Connection& conn : connections_)
    fds.push_back(pollfd{conn.channel.fd(), POLLIN, 0});
  const int timeout = busy() ? 0 : pollTimeoutMs;
  const int ready = ::poll(fds.data(), fds.size(), timeout);
  if (ready > 0) {
    // Dispatch existing connections first (their indices align with the
    // pollfd list built above; accepts append after it).
    for (std::size_t i = 0; i < connections_.size(); ++i) {
      if ((fds[i + 1].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      Connection& conn = connections_[i];
      try {
        io::CheckpointReader frame = conn.channel.recv("serve daemon");
        handleFrame(conn, frame);
        didWork = true;
      } catch (const wire::WireError&) {
        conn.channel.close();  // peer gone (or un-frameable garbage)
      } catch (const io::CheckpointError& e) {
        // The frame was fully consumed (length-prefixed), so the channel is
        // still in sync — a malformed payload earns a typed rejection, not
        // a dropped connection.
        try {
          reject(conn, std::string("malformed request: ") + e.what());
          didWork = true;
        } catch (const wire::WireError&) {
          conn.channel.close();
        }
      }
    }
    if (fds[0].revents & POLLIN) {
      const int fd = ::accept(listenFd_, nullptr, nullptr);
      if (fd >= 0) {
        connections_.push_back(
            Connection{orch::wire::FrameChannel(fd), 0});
        didWork = true;
      }
    }
  }

  if (!shutdownRequested_) {
    if (Submission* sub = pickNext()) {
      advance(*sub);
      didWork = true;
    }
  }
  // Fold a log that outgrew its base here, between requests and rounds: a
  // failed fold is the service loop's error, never a request's answer.
  if (log_.outgrewBase()) writeBase();
  return didWork;
}

void Daemon::runUntilShutdown() {
  while (!shutdownRequested_) tick(busy() ? 0 : 50);
}

std::vector<JobStatus> Daemon::statusRows() const {
  std::vector<JobStatus> rows;
  rows.reserve(submissions_.size());
  for (const auto& sub : submissions_) rows.push_back(statusRowFor(*sub));
  return rows;
}

// ---- Persistence ---------------------------------------------------------

void Daemon::persist(Submission& sub) {
  log_.append(std::exchange(sub.lastObs.publishes, {}), *cache_, meta_, sub);
}

void Daemon::writeBase() {
  std::vector<const SubmissionEntry*> jobs;
  jobs.reserve(submissions_.size());
  for (const auto& sub : submissions_) jobs.push_back(sub.get());
  log_.writeBase(*cache_, meta_, jobs);
}

void Daemon::recover() {
  RecoveredState st = log_.recover(*cache_);
  meta_ = std::move(st.meta);
  for (SubmissionEntry& entry : st.jobs) {
    auto sub = std::make_unique<Submission>(std::move(entry));
    if (sub->state == Submission::State::kQueued ||
        sub->state == Submission::State::kRunning) {
      // Rebuild the live run from the persisted text — the same path
      // admission took, so the journal grant and scopes re-derive
      // identically. A journal on disk holds the submission's last barrier
      // (its last record's, or one round past it): it resumes from there
      // (bitwise, docs/SERVICE.md). Without one it restarts from scratch —
      // for unjournaled submissions that is exactly the "not
      // crash-resumable" deal their strategies signed.
      try {
        buildScheduler(*sub);
        if (sub->journaled && fileExists(journalPathFor(sub->id)))
          sub->resumePending = true;
        else
          sub->roundsCompleted = 0;
        sub->state = Submission::State::kQueued;
      } catch (const std::exception& e) {
        sub->state = Submission::State::kFailed;
        sub->error = std::string("recovery failed: ") + e.what();
        sub->sched.reset();
      }
    } else if (sub->journaled) {
      // A kill between a terminal record and the journal's removal.
      std::remove(journalPathFor(sub->id).c_str());
    }
    submissions_.push_back(std::move(sub));
  }
  if (st.fold) writeBase();
}

}  // namespace trdse::serve
