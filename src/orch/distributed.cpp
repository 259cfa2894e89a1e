#include "orch/distributed.hpp"

#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>
#ifdef __linux__
#include <sys/prctl.h>
#endif

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <utility>

#include "common/thread_pool.hpp"

namespace trdse::orch {

namespace {

using wire::WireError;

// ---- Worker process ------------------------------------------------------

/// The worker's whole life: serve coordinator frames until shutdown/EOF.
/// Runs in the forked child, which inherited the fully built `jobs` and the
/// master cache image (now its read mirror). Exits via _Exit only — the
/// child must never run the parent's atexit/static-destructor state.
[[noreturn]] void workerMain(std::size_t workerIndex, wire::FrameChannel ch,
                             std::size_t threads, std::vector<BuiltJob>& jobs,
                             const std::shared_ptr<eval::SharedEvalCache>& mirror,
                             const std::vector<std::size_t>& owned) {
  const std::string src = "worker " + std::to_string(workerIndex);
  try {
    // Probe baselines: deltas reported per round are (current - baseline),
    // so the coordinator merges each probe into the master exactly once.
    // The fork image's counters equal the master's at fork time (which is
    // also why a respawned worker starts consistent).
    std::vector<std::pair<std::size_t, std::size_t>> baseline;
    if (mirror != nullptr) {
      baseline.resize(mirror->shardCount());
      for (std::size_t s = 0; s < baseline.size(); ++s) {
        const eval::SharedEvalCache::ShardCounters c = mirror->shardStats(s);
        baseline[s] = {c.hits, c.misses};
      }
    }

    common::ThreadPool pool(threads);
    std::vector<std::size_t> grantJobs;
    std::vector<wire::JobRoundReport> reports;

    for (;;) {
      const io::CheckpointReader msg = ch.recv(src);
      const std::string kind = msg.kind();

      if (kind == wire::kMsgShutdown) std::_Exit(0);

      if (kind == wire::kMsgRunRound) {
        io::SectionReader r = msg.section("round");
        const std::uint64_t round = r.u64();
        const bool die = r.boolean();
        const std::uint64_t n = r.u64();
        grantJobs.clear();
        for (std::uint64_t k = 0; k < n; ++k) {
          const std::size_t i = r.u64();
          jobs.at(i).granted = r.u64();
          grantJobs.push_back(i);
        }
        r.expectEnd();
        // Deterministic kill hook (--debug-kill-worker): emulate a SIGKILL
        // at the most adversarial instant — round received, nothing stepped.
        if (die) std::_Exit(137);

        // The post-step blob is what a respawned worker restores from.
        reports.assign(grantJobs.size(), {});
        pool.parallelFor(grantJobs.size(), [&](std::size_t k) {
          BuiltJob& job = jobs[grantJobs[k]];
          reports[k] = stepJob(job, grantJobs[k],
                               job.strategy->supportsCheckpoint());
        });

        io::CheckpointWriter out = wire::makeMessage(wire::kMsgRoundResult);
        out.section("round").u64(round);
        io::SectionWriter& js = out.section("jobs");
        js.u64(reports.size());
        for (const wire::JobRoundReport& rep : reports)
          wire::writeJobRoundReport(js, rep);
        std::vector<wire::ShardDelta> deltas;
        if (mirror != nullptr) {
          for (std::size_t s = 0; s < baseline.size(); ++s) {
            const eval::SharedEvalCache::ShardCounters c = mirror->shardStats(s);
            const std::size_t dh = c.hits - baseline[s].first;
            const std::size_t dm = c.misses - baseline[s].second;
            if (dh != 0 || dm != 0) deltas.push_back({s, dh, dm});
            baseline[s] = {c.hits, c.misses};
          }
        }
        wire::writeShardDeltas(out.section("deltas"), deltas);
        ch.send(out);
        continue;
      }

      if (kind == wire::kMsgBarrier) {
        io::SectionReader pb = msg.section("publishes");
        const std::uint64_t m = pb.u64();
        for (std::uint64_t k = 0; k < m; ++k) {
          const std::size_t jobIndex = pb.u64();
          std::vector<wire::PublishEntry> entries = wire::readPublishes(pb);
          if (mirror != nullptr) {
            const std::size_t scope = mirror->scopeId(jobs.at(jobIndex).scope);
            for (wire::PublishEntry& e : entries)
              mirror->insert(scope, e.key, std::move(e.result));
          }
        }
        pb.expectEnd();
        continue;
      }

      if (kind == wire::kMsgRestore) {
        io::SectionReader r = msg.section("jobs");
        const std::uint64_t n = r.u64();
        for (std::uint64_t k = 0; k < n; ++k) {
          const std::size_t i = r.u64();
          const std::string blob = r.str();
          jobs.at(i).strategy->restoreCheckpointBlob(
              blob, src + "[job " + jobs[i].spec.name + "]");
        }
        r.expectEnd();
        ch.send(wire::makeMessage(wire::kMsgRestoreAck));
        continue;
      }

      if (kind == wire::kMsgHarvest) {
        io::CheckpointWriter out = wire::makeMessage(wire::kMsgHarvestResult);
        io::SectionWriter& js = out.section("jobs");
        js.u64(owned.size());
        for (const std::size_t i : owned)
          wire::writeJobHarvest(js, harvestJob(jobs[i], i));
        ch.send(out);
        continue;
      }

      throw WireError(src + ": unexpected message kind \"" + kind + "\"");
    }
  } catch (const WireError& e) {
    // EOF/EPIPE means the coordinator is gone (clean exit — PDEATHSIG also
    // covers a SIGKILLed coordinator on Linux); anything else is a protocol
    // failure worth a loud death.
    const bool peerGone = std::strstr(e.what(), "peer closed") != nullptr;
    if (!peerGone)
      std::fprintf(stderr, "trdse worker %zu: %s\n", workerIndex, e.what());
    std::_Exit(peerGone ? 0 : 1);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "trdse worker %zu: %s\n", workerIndex, e.what());
    std::_Exit(1);
  }
}

/// Reap `pid` with a bounded grace period, escalating to SIGKILL — a stuck
/// worker must never wedge shutdown or a respawn. The poll starts at 200us
/// and backs off: a worker told to shut down exits within microseconds, and
/// this wait sits on the scheduler's teardown critical path.
void reap(pid_t pid, int graceMs) {
  int status = 0;
  long stepUs = 200;
  for (long waitedUs = 0; waitedUs < static_cast<long>(graceMs) * 1000;) {
    const pid_t r = ::waitpid(pid, &status, WNOHANG);
    if (r == pid || (r < 0 && errno == ECHILD)) return;
    ::usleep(static_cast<useconds_t>(stepUs));
    waitedUs += stepUs;
    if (stepUs < 10000) stepUs *= 2;
  }
  ::kill(pid, SIGKILL);
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
}

}  // namespace

// ---- Coordinator ---------------------------------------------------------

WorkerPool::WorkerPool(const Scenario& scenario, std::vector<BuiltJob>& jobs,
                       std::shared_ptr<eval::SharedEvalCache> shared)
    : scenario_(scenario), jobs_(jobs), shared_(std::move(shared)) {
  const std::size_t n = std::min(scenario_.workers, jobs_.size());
  slots_.resize(n);
  attribution_.resize(n);
  for (std::size_t i = 0; i < jobs_.size(); ++i) {
    slots_[i % n].owned.push_back(i);
    attribution_[i % n].jobs.push_back(jobs_[i].spec.name);
  }
  haveReport_.assign(jobs_.size(), 0);
  lastBlobs_.resize(jobs_.size());
}

WorkerPool::~WorkerPool() {
  try {
    shutdown();
  } catch (...) {
    // Destructors stay silent; shutdown escalates to SIGKILL itself.
  }
}

void WorkerPool::start() {
  if (forked_) return;
  for (std::size_t w = 0; w < slots_.size(); ++w) spawnWorker(w);
  forked_ = true;
}

void WorkerPool::spawnWorker(std::size_t w) {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0)
    throw WireError(std::string("socketpair: ") + std::strerror(errno));
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    throw WireError(std::string("fork: ") + std::strerror(errno));
  }
  if (pid == 0) {
    // Child. Keep only our own worker end: a sibling still holding a dead
    // worker's coordinator-side fd would mask that worker's EOF forever.
    ::close(fds[0]);
#if defined(__linux__) && defined(PR_SET_PDEATHSIG)
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);  // die with the coordinator
#endif
    for (Slot& other : slots_) other.ch.close();
    workerMain(w, wire::FrameChannel(fds[1]), scenario_.threads, jobs_,
               shared_, slots_[w].owned);
  }
  ::close(fds[1]);
  Slot& slot = slots_[w];
  slot.pid = pid;
  slot.ch = wire::FrameChannel(fds[0]);
  slot.stepping = false;
}

void WorkerPool::respawnWorker(std::size_t w, const std::string& why) {
  Slot& slot = slots_[w];
  if (++slot.consecutiveDeaths > 3)
    throw WireError("worker " + std::to_string(w) + " died " +
                    std::to_string(slot.consecutiveDeaths) +
                    " times without completing a round (" + why +
                    ") — giving up; see stderr for the worker's output");
  // Recovery replays from the last barrier's checkpoint blobs; a job that
  // has stepped but cannot checkpoint has no replayable state.
  for (const std::size_t i : slot.owned)
    if (jobs_[i].result.rounds > 0 && !jobs_[i].strategy->supportsCheckpoint())
      throw WireError(
          "worker " + std::to_string(w) + " " + why + " with job \"" +
          jobs_[i].spec.name +
          "\" in flight, whose strategy cannot checkpoint — the round "
          "cannot be replayed (use a checkpointable strategy or workers=0)");

  if (slot.pid >= 0) {
    ::kill(slot.pid, SIGKILL);
    reap(slot.pid, 0);
    slot.pid = -1;
  }
  slot.ch.close();

  const bool wasStepping = slot.stepping;
  events_.push_back("round " + std::to_string(round_) + ": worker " +
                    std::to_string(w) + " " + why +
                    (wasStepping ? "; respawned and round re-dispatched"
                                 : "; respawned"));
  std::fprintf(stderr, "trdse: %s\n", events_.back().c_str());

  spawnWorker(w);
  try {
    // The fresh fork already holds the master's current cache image and the
    // coordinator-side (never-stepped, or just resumed) strategies; ship
    // the blobs of every owned job that has stepped since, to bring it to
    // the last barrier.
    io::CheckpointWriter msg = wire::makeMessage(wire::kMsgRestore);
    io::SectionWriter& js = msg.section("jobs");
    std::size_t count = 0;
    for (const std::size_t i : slot.owned)
      if (!lastBlobs_[i].empty()) ++count;
    js.u64(count);
    for (const std::size_t i : slot.owned) {
      if (lastBlobs_[i].empty()) continue;
      js.u64(i);
      js.str(lastBlobs_[i]);
    }
    slot.ch.send(msg);
    const io::CheckpointReader ack =
        slot.ch.recv("worker " + std::to_string(w) + " (restore ack)");
    if (ack.kind() != wire::kMsgRestoreAck)
      throw WireError("worker " + std::to_string(w) +
                      ": expected restore ack, got \"" + ack.kind() + "\"");
    if (wasStepping) dispatchRound(w);
  } catch (const WireError& e) {
    respawnWorker(w, std::string("died during recovery (") + e.what() + ")");
  }
}

void WorkerPool::dispatchRound(std::size_t w) {
  Slot& slot = slots_[w];
  io::CheckpointWriter msg = wire::makeMessage(wire::kMsgRunRound);
  io::SectionWriter& r = msg.section("round");
  r.u64(round_);
  bool die = false;
  for (auto it = debugKills_.begin(); it != debugKills_.end(); ++it)
    if (it->first == w && it->second == round_) {
      die = true;
      debugKills_.erase(it);  // fire once — the respawn must survive
      break;
    }
  r.boolean(die);
  std::vector<std::size_t> mine;
  for (const std::size_t i : granted_)
    if (workerOf(i) == w) mine.push_back(i);
  r.u64(mine.size());
  for (const std::size_t i : mine) {
    r.u64(i);
    r.u64(jobs_[i].granted);
  }
  slot.stepping = true;
  if (scenario_.workerTimeoutSeconds > 0.0) {
    // The scenario parser bounds the timeout by steady_clock's range; the
    // deadline saturates rather than overflow past it.
    using Clock = std::chrono::steady_clock;
    const auto now = Clock::now();
    const auto timeout = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(scenario_.workerTimeoutSeconds));
    slot.deadline = timeout < Clock::time_point::max() - now
                        ? now + timeout
                        : Clock::time_point::max();
  }
  try {
    slot.ch.send(msg);
  } catch (const WireError& e) {
    respawnWorker(w, std::string("died before the round reached it (") +
                         e.what() + ")");
  }
}

void WorkerPool::step(std::size_t round,
                      const std::vector<std::size_t>& granted,
                      std::vector<wire::JobRoundReport>& reports) {
  round_ = round;
  granted_ = granted;
  for (const std::size_t i : granted) haveReport_[i] = 0;
  for (std::size_t w = 0; w < slots_.size(); ++w)
    if (std::any_of(granted.begin(), granted.end(),
                    [&](std::size_t i) { return workerOf(i) == w; }))
      dispatchRound(w);
  collectRoundResults(reports);
  for (const std::size_t i : granted)
    if (!haveReport_[i])
      throw WireError("round " + std::to_string(round_) +
                      ": no report for job \"" + jobs_[i].spec.name + "\"");
}

void WorkerPool::collectRoundResults(
    std::vector<wire::JobRoundReport>& reports) {
  std::vector<pollfd> fds;
  std::vector<std::size_t> idx;
  for (;;) {
    fds.clear();
    idx.clear();
    for (std::size_t w = 0; w < slots_.size(); ++w) {
      if (!slots_[w].stepping) continue;
      fds.push_back({slots_[w].ch.fd(), POLLIN, 0});
      idx.push_back(w);
    }
    if (fds.empty()) return;

    int timeoutMs = -1;
    const auto now = std::chrono::steady_clock::now();
    if (scenario_.workerTimeoutSeconds > 0.0) {
      for (const std::size_t w : idx) {
        const auto remain = std::chrono::duration_cast<std::chrono::milliseconds>(
                                slots_[w].deadline - now)
                                .count();
        // poll() takes an int; a far deadline just re-polls when it wakes.
        const int ms =
            remain < 0 ? 0
                       : static_cast<int>(std::min<std::int64_t>(
                             remain, std::numeric_limits<int>::max() - 1)) +
                             1;
        if (timeoutMs < 0 || ms < timeoutMs) timeoutMs = ms;
      }
    }

    const int rc = ::poll(fds.data(), fds.size(), timeoutMs);
    if (rc < 0) {
      if (errno == EINTR) continue;
      throw WireError(std::string("poll: ") + std::strerror(errno));
    }
    if (rc == 0) {
      // Deadline sweep: kill and re-dispatch every stepping worker past it.
      const auto late = std::chrono::steady_clock::now();
      for (std::size_t w = 0; w < slots_.size(); ++w)
        if (slots_[w].stepping && late >= slots_[w].deadline) {
          respawnWorker(w, "stalled past worker_timeout");
          break;  // slots changed; rebuild the poll set
        }
      continue;
    }

    for (std::size_t k = 0; k < fds.size(); ++k) {
      if ((fds[k].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      const std::size_t w = idx[k];
      try {
        io::CheckpointReader msg =
            slots_[w].ch.recv("worker " + std::to_string(w));
        if (msg.kind() != wire::kMsgRoundResult)
          throw WireError("worker " + std::to_string(w) +
                          ": unexpected message kind \"" + msg.kind() +
                          "\" during a round");
        io::SectionReader rr = msg.section("round");
        const std::uint64_t round = rr.u64();
        rr.expectEnd();
        if (round != round_)
          throw WireError("worker " + std::to_string(w) + " reported round " +
                          std::to_string(round) + " during round " +
                          std::to_string(round_));
        io::SectionReader js = msg.section("jobs");
        const std::uint64_t n = js.u64();
        for (std::uint64_t j = 0; j < n; ++j) {
          wire::JobRoundReport rep = wire::readJobRoundReport(js);
          if (rep.jobIndex >= jobs_.size() || workerOf(rep.jobIndex) != w)
            throw WireError("worker " + std::to_string(w) +
                            " reported job index " +
                            std::to_string(rep.jobIndex) + " it does not own");
          const std::size_t ji = rep.jobIndex;
          if (!rep.strategyBlob.empty())
            lastBlobs_[ji] = std::move(rep.strategyBlob);
          reports[ji] = std::move(rep);
          haveReport_[ji] = 1;
        }
        js.expectEnd();
        io::SectionReader ds = msg.section("deltas");
        const std::vector<wire::ShardDelta> deltas = wire::readShardDeltas(ds);
        ds.expectEnd();
        // Merging on receipt is safe: sums commute, and a killed worker's
        // partial round is never received, so each probe merges once.
        for (const wire::ShardDelta& d : deltas) {
          if (shared_ != nullptr) shared_->addProbes(d.shard, d.hits, d.misses);
          attribution_[w].sharedHits += d.hits;
          attribution_[w].sharedMisses += d.misses;
        }
        slots_[w].stepping = false;
        slots_[w].consecutiveDeaths = 0;
      } catch (const WireError& e) {
        respawnWorker(w, std::string("died mid-round (") + e.what() + ")");
      } catch (const io::CheckpointError& e) {
        respawnWorker(w, std::string("sent a corrupt frame (") + e.what() +
                             ")");
      }
      break;  // slots may have changed; rebuild the poll set
    }
  }
}

void WorkerPool::barrier(const std::vector<std::size_t>& stepped,
                         const std::vector<wire::JobRoundReport>& reports) {
  std::vector<std::size_t> publishing;
  for (const std::size_t i : stepped)
    if (reports[i].stepError.empty() && !reports[i].publishes.empty())
      publishing.push_back(i);
  io::CheckpointWriter msg = wire::makeMessage(wire::kMsgBarrier);
  msg.section("round").u64(round_);
  io::SectionWriter& pb = msg.section("publishes");
  pb.u64(publishing.size());
  for (const std::size_t i : publishing) {
    pb.u64(i);
    wire::writePublishes(pb, reports[i].publishes);
  }

  // Every worker gets the barrier (mirror sync). A worker that dies here is
  // respawned — its fresh fork image already contains this barrier's master
  // inserts — and the barrier is re-sent (mirror re-inserts are idempotent).
  for (std::size_t w = 0; w < slots_.size(); ++w) {
    for (;;) {
      try {
        slots_[w].ch.send(msg);
        break;
      } catch (const WireError& e) {
        respawnWorker(w, std::string("died at the barrier (") + e.what() +
                             ")");
      }
    }
  }
}

const std::string& WorkerPool::strategyBlob(std::size_t i) {
  // A job that has not stepped on a worker is exactly the coordinator's
  // image (construction or resume state), which is what a fork starts from.
  if (lastBlobs_[i].empty())
    lastBlobs_[i] = jobs_[i].strategy->saveCheckpointBlob();
  return lastBlobs_[i];
}

std::vector<wire::JobHarvest> WorkerPool::harvest() {
  std::vector<wire::JobHarvest> out(jobs_.size());
  for (std::size_t w = 0; w < slots_.size(); ++w) {
    for (;;) {
      try {
        slots_[w].ch.send(wire::makeMessage(wire::kMsgHarvest));
        const io::CheckpointReader msg =
            slots_[w].ch.recv("worker " + std::to_string(w) + " (harvest)");
        if (msg.kind() != wire::kMsgHarvestResult)
          throw WireError("worker " + std::to_string(w) +
                          ": expected harvest result, got \"" + msg.kind() +
                          "\"");
        io::SectionReader js = msg.section("jobs");
        const std::uint64_t n = js.u64();
        if (n != slots_[w].owned.size())
          js.fail("harvest covers " + std::to_string(n) + " jobs, worker " +
                  std::to_string(w) + " owns " +
                  std::to_string(slots_[w].owned.size()));
        for (std::uint64_t k = 0; k < n; ++k) {
          wire::JobHarvest h = wire::readJobHarvest(js);
          if (h.jobIndex >= jobs_.size() || workerOf(h.jobIndex) != w)
            throw WireError("worker " + std::to_string(w) +
                            " harvested job index " +
                            std::to_string(h.jobIndex) + " it does not own");
          out[h.jobIndex] = std::move(h);
        }
        js.expectEnd();
        break;
      } catch (const WireError& e) {
        respawnWorker(w, std::string("died at harvest (") + e.what() + ")");
      }
    }
  }
  return out;
}

void WorkerPool::shutdown() {
  for (Slot& slot : slots_) {
    if (slot.pid < 0) continue;
    try {
      slot.ch.send(wire::makeMessage(wire::kMsgShutdown));
    } catch (...) {
      // Already dead — reap below.
    }
    slot.ch.close();
    reap(slot.pid, 2000);
    slot.pid = -1;
  }
}

}  // namespace trdse::orch
