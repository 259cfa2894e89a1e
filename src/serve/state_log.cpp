#include "serve/state_log.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <utility>

#include "orch/wire.hpp"

namespace trdse::serve {

namespace wire = trdse::orch::wire;

namespace {

constexpr char kBaseKind[] = "serve-state";
constexpr char kRecordKind[] = "serve-record";
// The state dir layout before the log existed: read once as the first base.
constexpr char kLegacyCacheFile[] = "shared.cache";
constexpr char kLegacyCacheKind[] = "serve-cache";
constexpr char kLegacyManifestFile[] = "daemon.manifest";
constexpr char kLegacyManifestKind[] = "serve-manifest";

/// The log is folded into a new base once it is larger than the base and
/// than this floor — a log this size replays in milliseconds.
constexpr std::uint64_t kBaseFloorBytes = 4ull << 20;

bool fileExists(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0;
}

std::uint64_t fileSize(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0 ? static_cast<std::uint64_t>(st.st_size)
                                        : 0;
}

[[noreturn]] void failErrno(const std::string& what, int err) {
  throw io::CheckpointError(what + ": " + std::strerror(err));
}

void syncDir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd >= 0) {
    ::fsync(fd);
    ::close(fd);
  }
}

void writeLru(io::SectionWriter& w, const ScopeLru& lru) {
  w.u64(lru.size());
  for (const std::string& s : lru) w.str(s);
}

ScopeLru readLru(io::SectionReader& r) {
  const std::uint64_t n = r.u64();
  ScopeLru lru;
  for (std::uint64_t i = 0; i < n; ++i) lru.push_back(r.str());
  return lru;
}

void writeMeta(io::SectionWriter& w, const DaemonMeta& meta) {
  w.u64(meta.nextId);
  w.str(meta.lastServedTenant);
}

void readMeta(io::SectionReader& r, DaemonMeta& meta) {
  meta.nextId = r.u64();
  meta.lastServedTenant = r.str();
}

/// The `cache` + `lru` sections (base, or a parent-format cache file).
void readCacheSections(const io::CheckpointReader& r,
                       eval::SharedEvalCache& cache, DaemonMeta& meta) {
  io::SectionReader c = r.section("cache");
  cache.restoreState(c);
  io::SectionReader l = r.section("lru");
  meta.lru = readLru(l);
}

/// The `meta` + `jobs` sections (base, or a parent-format manifest).
void readManifestSections(const io::CheckpointReader& r, RecoveredState& st) {
  io::SectionReader m = r.section("meta");
  readMeta(m, st.meta);
  io::SectionReader j = r.section("jobs");
  const std::uint64_t count = j.u64();
  for (std::uint64_t i = 0; i < count; ++i)
    st.jobs.push_back(readSubmissionEntry(j));
}

/// Read a whole file descriptor from offset 0 up to its current size.
std::string readAll(int fd, const std::string& path) {
  struct stat st{};
  if (::fstat(fd, &st) != 0) failErrno("cannot stat '" + path + "'", errno);
  std::string bytes(static_cast<std::size_t>(st.st_size), '\0');
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::pread(fd, bytes.data() + off, bytes.size() - off,
                              static_cast<off_t>(off));
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) failErrno("cannot read '" + path + "'", errno);
    if (n == 0) break;  // shrank under us: what was read is the log
    off += static_cast<std::size_t>(n);
  }
  bytes.resize(off);
  return bytes;
}

/// The record starting at `pos`, or nothing when the log ends there: too few
/// bytes for the length or the body, a bad container, or a container this
/// build did not write as a record. `end` receives the next record's offset.
std::optional<io::CheckpointReader> parseRecord(const std::string& log,
                                                std::size_t pos,
                                                const std::string& source,
                                                std::size_t& end) {
  if (log.size() - pos < 8) return std::nullopt;
  std::uint64_t len = 0;
  for (int i = 0; i < 8; ++i)
    len |= static_cast<std::uint64_t>(
               static_cast<unsigned char>(log[pos + i]))
           << (8 * i);
  if (len > log.size() - pos - 8) return std::nullopt;
  std::optional<io::CheckpointReader> rec;
  try {
    rec.emplace(source + " @" + std::to_string(pos), log.substr(pos + 8, len));
  } catch (const io::CheckpointError&) {
    return std::nullopt;
  }
  // Checksummed but written as another kind — only header corruption gets
  // here; it ends the log like a bad checksum.
  if (rec->kind() != kRecordKind) return std::nullopt;
  end = pos + 8 + len;
  return rec;
}

/// Apply one record of the base's generation: decode every section first,
/// then re-register scopes in id order, insert the publishes, install the
/// absolute counters, and upsert the meta and the manifest entry.
void applyRecord(const io::CheckpointReader& rec, eval::SharedEvalCache& cache,
                 RecoveredState& st) {
  io::SectionReader sc = rec.section("scopes");
  const std::uint64_t scopeCount = sc.u64();
  std::vector<std::string> scopes;
  for (std::uint64_t i = 0; i < scopeCount; ++i) scopes.push_back(sc.str());
  io::SectionReader p = rec.section("publish");
  const std::uint64_t groups = p.u64();
  std::vector<std::pair<std::string, std::vector<wire::PublishEntry>>> pubs;
  for (std::uint64_t g = 0; g < groups; ++g) {
    std::string scope = p.str();
    pubs.emplace_back(std::move(scope), wire::readPublishes(p));
  }
  io::SectionReader l = rec.section("lru");
  io::SectionReader m = rec.section("meta");
  DaemonMeta meta;
  meta.lru = readLru(l);
  readMeta(m, meta);
  io::SectionReader j = rec.section("job");
  SubmissionEntry entry = readSubmissionEntry(j);

  // Shard placement hashes the scope id, so ids must come back exactly as
  // the writing daemon assigned them (scopes register at admission, long
  // before their first publish).
  for (std::size_t i = 0; i < scopes.size(); ++i)
    if (cache.scopeId(scopes[i]) != i)
      sc.fail("scope '" + scopes[i] + "' does not keep id " +
              std::to_string(i) + " on replay");
  for (const auto& [scope, entries] : pubs) {
    const std::size_t id = cache.scopeId(scope);
    for (const wire::PublishEntry& e : entries)
      cache.insert(id, e.key, e.result);
  }
  io::SectionReader c = rec.section("counters");
  cache.restoreCounters(c);

  st.meta = std::move(meta);
  const auto it =
      std::find_if(st.jobs.begin(), st.jobs.end(),
                   [&](const SubmissionEntry& e) { return e.id == entry.id; });
  if (it != st.jobs.end())
    *it = std::move(entry);
  else
    st.jobs.push_back(std::move(entry));
}

}  // namespace

// ---- Scope LRU -------------------------------------------------------------

void touchScope(ScopeLru& lru, const std::string& scope) {
  const auto it = std::find(lru.begin(), lru.end(), scope);
  if (it != lru.end()) lru.erase(it);
  lru.insert(lru.begin(), scope);
}

std::vector<std::string> enforceBudget(eval::SharedEvalCache& cache,
                                       const ScopeLru& lru,
                                       std::uint64_t budgetBytes,
                                       const std::vector<std::string>& pinned) {
  std::vector<std::string> evicted;
  if (budgetBytes == 0) return evicted;
  std::uint64_t bytes = cache.approxBytes();
  if (bytes <= budgetBytes) return evicted;
  const std::vector<std::string> names = cache.scopeNames();
  // Walk the LRU order from the cold end; scope ids come from the registered
  // name list (an LRU entry whose scope was never registered here is a
  // leftover from an evicted past life — nothing to drop).
  for (auto it = lru.rbegin(); it != lru.rend() && bytes > budgetBytes; ++it) {
    if (std::find(pinned.begin(), pinned.end(), *it) != pinned.end()) continue;
    const auto name = std::find(names.begin(), names.end(), *it);
    if (name == names.end()) continue;
    const std::size_t scope =
        static_cast<std::size_t>(name - names.begin());
    const std::size_t scopeBytes = cache.approxScopeBytes(scope);
    if (cache.evictScope(scope) == 0) continue;
    bytes -= std::min<std::uint64_t>(bytes, scopeBytes);
    evicted.push_back(*it);
  }
  return evicted;
}

// ---- Manifest entries ------------------------------------------------------

void writeSubmissionEntry(io::SectionWriter& w, const SubmissionEntry& e) {
  w.u64(e.id);
  w.str(e.tenant);
  w.str(e.source);
  w.str(e.scenarioText);
  w.boolean(e.wantJournal);
  w.u8(static_cast<std::uint8_t>(e.state));
  w.boolean(e.journaled);
  w.boolean(e.usesGlobalCache);
  w.str(e.scenarioName);
  w.u64(e.jobsTotal);
  w.u64(e.roundsCompleted);
  w.u64(e.baseline.size());
  for (const auto& b : e.baseline) {
    w.u64(b.hits);
    w.u64(b.misses);
    w.u64(b.inserts);
    w.u64(b.entries);
  }
  w.u64(e.scopes.size());
  for (const std::string& scope : e.scopes) w.str(scope);
  w.str(e.report);
  w.boolean(e.quarantined);
  w.u64(e.rows.size());
  for (const orch::JobResult& row : e.rows) wire::writeJobResult(w, row);
  w.str(e.error);
}

SubmissionEntry readSubmissionEntry(io::SectionReader& r) {
  SubmissionEntry e;
  e.id = r.u64();
  e.tenant = r.str();
  e.source = r.str();
  e.scenarioText = r.str();
  e.wantJournal = r.boolean();
  const std::uint8_t state = r.u8();
  if (state > static_cast<std::uint8_t>(SubmissionEntry::State::kCancelled))
    r.fail("submission " + std::to_string(e.id) + " carries unknown state " +
           std::to_string(state));
  e.state = static_cast<SubmissionEntry::State>(state);
  e.journaled = r.boolean();
  e.usesGlobalCache = r.boolean();
  e.scenarioName = r.str();
  e.jobsTotal = r.u64();
  e.roundsCompleted = r.u64();
  const std::uint64_t shards = r.u64();
  for (std::uint64_t s = 0; s < shards; ++s) {
    eval::SharedEvalCache::ShardCounters c;
    c.hits = r.u64();
    c.misses = r.u64();
    c.inserts = r.u64();
    c.entries = r.u64();
    e.baseline.push_back(c);
  }
  const std::uint64_t scopes = r.u64();
  for (std::uint64_t s = 0; s < scopes; ++s) e.scopes.push_back(r.str());
  e.report = r.str();
  e.quarantined = r.boolean();
  const std::uint64_t rows = r.u64();
  for (std::uint64_t i = 0; i < rows; ++i)
    e.rows.push_back(wire::readJobResult(r));
  e.error = r.str();
  return e;
}

// ---- StateLog --------------------------------------------------------------

StateLog::StateLog(std::string stateDir) : dir_(std::move(stateDir)) {}

StateLog::~StateLog() {
  if (fd_ >= 0) ::close(fd_);
}

std::string StateLog::path(const char* file) const {
  return dir_ + "/" + file;
}

RecoveredState StateLog::recover(eval::SharedEvalCache& cache) {
  if (fd_ >= 0) throw std::logic_error("StateLog::recover: called twice");
  RecoveredState st;
  const std::string base = path(kStateBaseFile);
  if (fileExists(base)) {
    const io::CheckpointReader r = io::CheckpointReader::fromFile(base);
    r.expectKind(kBaseKind);
    io::SectionReader g = r.section("log");
    generation_ = g.u64();
    readCacheSections(r, cache, st.meta);
    readManifestSections(r, st);
    baseBytes_ = fileSize(base);
  } else {
    // A state dir from before the log: its cache and manifest files are the
    // first base (generation 0), folded into a real one by the caller.
    const std::string cacheFile = path(kLegacyCacheFile);
    const std::string manifest = path(kLegacyManifestFile);
    if (fileExists(cacheFile)) {
      const io::CheckpointReader r = io::CheckpointReader::fromFile(cacheFile);
      r.expectKind(kLegacyCacheKind);
      readCacheSections(r, cache, st.meta);
      legacy_ = true;
    }
    if (fileExists(manifest)) {
      const io::CheckpointReader r = io::CheckpointReader::fromFile(manifest);
      r.expectKind(kLegacyManifestKind);
      readManifestSections(r, st);
      legacy_ = true;
    }
  }

  const std::string logPath = path(kStateLogFile);
  const bool existed = fileExists(logPath);
  fd_ = ::open(logPath.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0666);
  if (fd_ < 0)
    failErrno("cannot open daemon state log '" + logPath + "'", errno);
  if (!existed) syncDir(dir_);  // the log's directory entry is durable too

  const std::string log = readAll(fd_, logPath);
  std::size_t pos = 0;
  std::size_t end = 0;
  while (std::optional<io::CheckpointReader> rec =
             parseRecord(log, pos, logPath, end)) {
    io::SectionReader g = rec->section("log");
    const std::uint64_t gen = g.u64();
    if (gen > generation_)
      g.fail("record extends base generation " + std::to_string(gen) +
             " but the base on disk is generation " +
             std::to_string(generation_));
    // An older generation is already folded into the base: a crash came
    // between the base's rename and the log's reset.
    if (gen == generation_) applyRecord(*rec, cache, st);
    pos = end;
  }
  if (pos < log.size() && ::ftruncate(fd_, static_cast<off_t>(pos)) != 0)
    failErrno("cannot truncate the torn tail of '" + logPath + "'", errno);
  logBytes_ = pos;
  st.fold = legacy_ || pos > 0;
  return st;
}

void StateLog::append(
    const std::vector<orch::RoundObservation::Publish>& publishes,
    const eval::SharedEvalCache& cache, const DaemonMeta& meta,
    const SubmissionEntry& entry) {
  io::CheckpointWriter rec(kRecordKind);
  rec.section("log").u64(generation_);
  io::SectionWriter& sc = rec.section("scopes");
  const std::vector<std::string> scopes = cache.scopeNames();
  sc.u64(scopes.size());
  for (const std::string& s : scopes) sc.str(s);
  io::SectionWriter& p = rec.section("publish");
  p.u64(publishes.size());
  for (const orch::RoundObservation::Publish& group : publishes) {
    p.str(group.scope);
    wire::writePublishes(p, group.entries);
  }
  cache.saveCounters(rec.section("counters"));
  writeLru(rec.section("lru"), meta.lru);
  writeMeta(rec.section("meta"), meta);
  writeSubmissionEntry(rec.section("job"), entry);
  const std::string frame = wire::encodeFrame(rec);

  const std::string logPath = path(kStateLogFile);
  const auto fail = [&](const std::string& what, int err) {
    // Cut any partial record off, so the next append lands where this one
    // should have and the log never holds a torn record before a good one.
    // Best effort: the error reported is the append's.
    const int cut = ::ftruncate(fd_, static_cast<off_t>(logBytes_));
    (void)cut;
    failErrno(what + " daemon state log '" + logPath + "'", err);
  };
  std::size_t off = 0;
  while (off < frame.size()) {
    const ssize_t n =
        ::pwrite(fd_, frame.data() + off, frame.size() - off,
                 static_cast<off_t>(logBytes_ + off));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) fail("cannot append to", n < 0 ? errno : EIO);
    off += static_cast<std::size_t>(n);
  }
  if (::fdatasync(fd_) != 0) fail("cannot sync", errno);
  logBytes_ += frame.size();
}

void StateLog::writeBase(const eval::SharedEvalCache& cache,
                         const DaemonMeta& meta,
                         const std::vector<const SubmissionEntry*>& jobs) {
  io::CheckpointWriter w(kBaseKind);
  w.section("log").u64(generation_ + 1);
  cache.saveState(w.section("cache"));
  writeLru(w.section("lru"), meta.lru);
  writeMeta(w.section("meta"), meta);
  io::SectionWriter& j = w.section("jobs");
  j.u64(jobs.size());
  for (const SubmissionEntry* e : jobs) writeSubmissionEntry(j, *e);
  const std::string base = path(kStateBaseFile);
  w.writeFile(base);  // durable before the log it replaces is emptied
  ++generation_;
  baseBytes_ = fileSize(base);
  if (::ftruncate(fd_, 0) != 0)
    failErrno("cannot reset daemon state log '" + path(kStateLogFile) + "'",
              errno);
  logBytes_ = 0;
  if (legacy_) {
    std::remove(path(kLegacyCacheFile).c_str());
    std::remove(path(kLegacyManifestFile).c_str());
    legacy_ = false;
  }
}

bool StateLog::outgrewBase() const {
  return logBytes_ > kBaseFloorBytes && logBytes_ > baseBytes_;
}

}  // namespace trdse::serve
