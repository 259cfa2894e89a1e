#include "orch/wire.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "io/state_io.hpp"

namespace trdse::orch::wire {

namespace {

/// Serialize the u64 length prefix little-endian (byte composition, like
/// every integer in the container format).
void putU64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

std::uint64_t getU64(const unsigned char* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

[[noreturn]] void failErrno(const std::string& what) {
  throw WireError(what + ": " + std::strerror(errno));
}

}  // namespace

bool knownMessageKind(std::string_view kind) {
  static constexpr std::string_view kKnown[] = {
      kMsgRunRound,  kMsgRoundResult, kMsgBarrier,       kMsgRestore,
      kMsgRestoreAck, kMsgHarvest,    kMsgHarvestResult, kMsgShutdown,
      kMsgSubmit,    kMsgAccepted,    kMsgRejected,      kMsgStatus,
      kMsgStatusReply, kMsgStream,    kMsgProgress,      kMsgResult,
      kMsgCancel,    kMsgServeShutdown, kMsgOk,
  };
  for (const std::string_view k : kKnown)
    if (k == kind) return true;
  return false;
}

std::string peekFrameKind(std::string_view bodyPrefix) {
  // Container prefix: u32 magic, u32 format version, u64 checksum, then the
  // u64-length-prefixed kind string (io/checkpoint.cpp, finish()).
  constexpr std::size_t kHeader = 4 + 4 + 8;
  if (bodyPrefix.size() < kHeader + 8) return {};
  if (bodyPrefix.substr(0, 4) != std::string_view("TDCK", 4)) return {};
  const std::uint64_t kindLen =
      getU64(reinterpret_cast<const unsigned char*>(bodyPrefix.data()) +
             kHeader);
  if (kindLen == 0 || kindLen > 256 ||
      bodyPrefix.size() < kHeader + 8 + kindLen)
    return {};
  return std::string(bodyPrefix.substr(kHeader + 8, kindLen));
}

io::CheckpointWriter makeMessage(const std::string& kind) {
  io::CheckpointWriter w(kind);
  w.section("wire").u32(kWireVersion);
  return w;
}

std::string encodeFrame(const io::CheckpointWriter& msg) {
  std::string body = msg.finish();
  std::string frame;
  frame.reserve(8 + body.size());
  putU64(frame, body.size());
  frame += body;
  return frame;
}

io::CheckpointReader decodeFrame(const std::string& body,
                                 const std::string& source) {
  // Container validation first: magic, format version, checksum, sections.
  io::CheckpointReader reader(source, body);
  if (!knownMessageKind(reader.kind()))
    throw WireError(source + ": unknown wire message kind \"" + reader.kind() +
                    "\" (a peer from the future?)");
  io::SectionReader hdr = reader.section("wire");
  const std::uint32_t version = hdr.u32();
  if (version > kWireVersion)
    throw WireError(source + ": wire protocol version " +
                    std::to_string(version) + " is newer than this build's " +
                    std::to_string(kWireVersion));
  return reader;
}

void FrameChannel::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
    rxOffset_ = 0;
  }
}

void FrameChannel::send(const io::CheckpointWriter& msg) {
  if (fd_ < 0) throw WireError("FrameChannel::send: channel is closed");
  const std::string frame = encodeFrame(msg);
  std::size_t off = 0;
  while (off < frame.size()) {
    // MSG_NOSIGNAL: a peer that died mid-run must surface as a WireError the
    // coordinator can recover from, never as a process-killing SIGPIPE.
    const ssize_t n = ::send(fd_, frame.data() + off, frame.size() - off,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EPIPE || errno == ECONNRESET)
        throw WireError("FrameChannel::send: peer closed the channel");
      failErrno("FrameChannel::send");
    }
    off += static_cast<std::size_t>(n);
  }
}

io::CheckpointReader FrameChannel::recv(const std::string& source) {
  if (fd_ < 0) throw WireError(source + ": channel is closed");
  // Errors below anchor on the stream offset of this frame's first byte, so
  // a post-mortem can locate the offending frame in a capture.
  const std::uint64_t frameStart = rxOffset_;
  const auto atOffset = [frameStart] {
    return " (frame starts at receive-stream offset " +
           std::to_string(frameStart) + ")";
  };
  unsigned char prefix[8];
  std::size_t got = 0;
  while (got < 8) {
    const ssize_t n = ::read(fd_, prefix + got, 8 - got);
    if (n < 0) {
      if (errno == EINTR) continue;
      failErrno(source + ": read");
    }
    if (n == 0) {
      rxOffset_ += got;
      if (got == 0)
        throw WireError(source + ": peer closed the channel" + atOffset());
      throw WireError(source + ": peer closed mid-frame (" +
                      std::to_string(got) + " of 8 length-prefix bytes)" +
                      atOffset());
    }
    got += static_cast<std::size_t>(n);
  }
  rxOffset_ += 8;
  const std::uint64_t len = getU64(prefix);
  if (len > kMaxFrameBytes) {
    // The body is never read at this size, but its first bytes usually are
    // already queued — peek a bounded prefix so the error can name the
    // message kind instead of only the sizes.
    std::string probe(128, '\0');
    const ssize_t n = ::recv(fd_, probe.data(), probe.size(), MSG_DONTWAIT);
    const std::string kind =
        n > 0 ? peekFrameKind(
                    std::string_view(probe.data(), static_cast<std::size_t>(n)))
              : std::string();
    throw WireError(source + ": frame" +
                    (kind.empty() ? std::string()
                                  : " of kind \"" + kind + "\"") +
                    " length " + std::to_string(len) + " exceeds the " +
                    std::to_string(kMaxFrameBytes) +
                    "-byte kMaxFrameBytes cap (corrupt length prefix?)" +
                    atOffset());
  }
  std::string body(static_cast<std::size_t>(len), '\0');
  std::size_t off = 0;
  while (off < body.size()) {
    const ssize_t n = ::read(fd_, body.data() + off, body.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      failErrno(source + ": read");
    }
    if (n == 0) {
      rxOffset_ += off;
      const std::string kind =
          peekFrameKind(std::string_view(body.data(), off));
      throw WireError(source + ": peer closed mid-frame" +
                      (kind.empty() ? std::string()
                                    : " of kind \"" + kind + "\"") +
                      " (" + std::to_string(off) + " of " +
                      std::to_string(len) + " body bytes)" + atOffset());
    }
    off += static_cast<std::size_t>(n);
  }
  rxOffset_ += body.size();
  return decodeFrame(body, source);
}

// ---- Payload codecs ------------------------------------------------------

void writeEvalKey(io::SectionWriter& w, const eval::EvalKey& key) {
  w.indexVec(key.indices);
  w.u64(key.cornerIndex);
}

eval::EvalKey readEvalKey(io::SectionReader& r) {
  eval::EvalKey key;
  key.indices = r.indexVec();
  key.cornerIndex = r.u64();
  return key;
}

void writeOutcome(io::SectionWriter& w, const opt::StrategyOutcome& o) {
  w.boolean(o.solved);
  w.u64(o.iterations);
  w.vec(o.sizes);
  w.f64(o.bestValue);
  w.vec(o.bestMeasurements);
  io::writeLedger(w, o.ledger);
  eval::writeEvalStats(w, o.evalStats);
}

opt::StrategyOutcome readOutcome(io::SectionReader& r) {
  opt::StrategyOutcome o;
  o.solved = r.boolean();
  o.iterations = r.u64();
  o.sizes = r.vec();
  o.bestValue = r.f64();
  o.bestMeasurements = r.vec();
  io::readLedger(r, o.ledger);
  o.evalStats = eval::readEvalStats(r);
  return o;
}

void writePublishes(io::SectionWriter& w,
                    const std::vector<PublishEntry>& entries) {
  w.u64(entries.size());
  for (const PublishEntry& e : entries) {
    writeEvalKey(w, e.key);
    io::writeEvalResult(w, e.result);
  }
}

std::vector<PublishEntry> readPublishes(io::SectionReader& r) {
  const std::uint64_t n = r.u64();
  std::vector<PublishEntry> entries;
  entries.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    PublishEntry e;
    e.key = readEvalKey(r);
    e.result = io::readEvalResult(r);
    entries.push_back(std::move(e));
  }
  return entries;
}

void writeJobRoundReport(io::SectionWriter& w, const JobRoundReport& rep) {
  w.u64(rep.jobIndex);
  w.str(rep.stepError);
  w.boolean(rep.finished);
  w.u64(rep.iterations);
  w.boolean(rep.solved);
  w.f64(rep.bestValue);
  eval::writeEvalStats(w, rep.stats);
  eval::writeFailureRecord(w, rep.firstFailure);
  writePublishes(w, rep.publishes);
  w.str(rep.strategyBlob);
}

JobRoundReport readJobRoundReport(io::SectionReader& r) {
  JobRoundReport rep;
  rep.jobIndex = r.u64();
  rep.stepError = r.str();
  rep.finished = r.boolean();
  rep.iterations = r.u64();
  rep.solved = r.boolean();
  rep.bestValue = r.f64();
  rep.stats = eval::readEvalStats(r);
  rep.firstFailure = eval::readFailureRecord(r);
  rep.publishes = readPublishes(r);
  rep.strategyBlob = r.str();
  return rep;
}

void writeShardDeltas(io::SectionWriter& w,
                      const std::vector<ShardDelta>& deltas) {
  w.u64(deltas.size());
  for (const ShardDelta& d : deltas) {
    w.u64(d.shard);
    w.u64(d.hits);
    w.u64(d.misses);
  }
}

std::vector<ShardDelta> readShardDeltas(io::SectionReader& r) {
  const std::uint64_t n = r.u64();
  std::vector<ShardDelta> deltas;
  deltas.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    ShardDelta d;
    d.shard = r.u64();
    d.hits = r.u64();
    d.misses = r.u64();
    deltas.push_back(d);
  }
  return deltas;
}

void writeJobHarvest(io::SectionWriter& w, const JobHarvest& h) {
  w.u64(h.jobIndex);
  writeOutcome(w, h.outcome);
  io::writeLedger(w, h.engineLedger);
  eval::writeEvalStats(w, h.engineStats);
}

JobHarvest readJobHarvest(io::SectionReader& r) {
  JobHarvest h;
  h.jobIndex = r.u64();
  h.outcome = readOutcome(r);
  io::readLedger(r, h.engineLedger);
  h.engineStats = eval::readEvalStats(r);
  return h;
}

void writeJobResult(io::SectionWriter& w, const JobResult& res) {
  w.str(res.name);
  w.str(res.circuit);
  w.str(res.strategy);
  w.u64(res.seed);
  w.u64(res.budget);
  w.u64(res.rounds);
  w.u64(res.published);
  // The retired per-job snapshot tally: a constant 0 keeps the layout that
  // daemon state files and serve/result frames share.
  w.u64(0);
  w.u64(res.failures);
  w.boolean(res.quarantined);
  w.str(res.quarantineReason);
  writeOutcome(w, res.outcome);
}

JobResult readJobResult(io::SectionReader& r) {
  JobResult res;
  res.name = r.str();
  res.circuit = r.str();
  res.strategy = r.str();
  res.seed = r.u64();
  res.budget = r.u64();
  res.rounds = r.u64();
  res.published = r.u64();
  (void)r.u64();  // retired snapshot tally (see writeJobResult)
  res.failures = r.u64();
  res.quarantined = r.boolean();
  res.quarantineReason = r.str();
  if (res.quarantined == res.quarantineReason.empty())
    r.fail("job result quarantine flag disagrees with its reason string");
  res.outcome = readOutcome(r);
  return res;
}

}  // namespace trdse::orch::wire
