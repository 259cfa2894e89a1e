// Length-prefixed frame transport for the distributed orchestrator.
//
// The coordinator and its forked workers (orch/distributed.hpp) exchange
// typed messages over a socketpair. Rather than inventing a second binary
// format, every message body *is* one io::CheckpointWriter container — the
// same magic / format version / FNV-1a body checksum / named-section layout
// every durable artifact in the repo already uses — so a frame inherits the
// container's validation for free: bad magic, a format version from the
// future, truncation, and checksum mismatches all surface as typed errors,
// never as silently misread state.
//
//   frame := [u64 little-endian body length] [TDCK container bytes]
//
// The container `kind` string is the message kind (the `wire/...` constants
// below); every message additionally carries a "wire" section holding the
// protocol version, so a coordinator can reject a message set newer than it
// speaks. Transport-level problems — a peer that closed mid-frame, a length
// prefix past the sanity cap, an unknown message kind — throw WireError;
// payload-level corruption throws io::CheckpointError. Both are fail-loud:
// no partial frame is ever delivered.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "eval/eval_cache.hpp"
#include "eval/eval_engine.hpp"
#include "io/checkpoint.hpp"
#include "opt/strategy.hpp"
#include "orch/job_set.hpp"

namespace trdse::orch::wire {

/// Transport-level failure: peer closed the channel (possibly mid-frame), a
/// length prefix exceeded the sanity cap, an I/O syscall failed, or a frame
/// carried an unknown message kind / future protocol version.
class WireError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Version of the message set. Bump when a message's payload layout changes;
/// a peer receiving a newer version fails loudly instead of misreading.
/// Version history:
///   1 — PR 8 coordinator/worker message set.
///   2 — PR 9 serve/* message kinds (sizing-as-a-service daemon). Payloads of
///       version-1 messages are unchanged, so a v2 peer speaks to a v1 one.
///   3 — JobRoundReport carries `solved` and `bestValue` (the round hook is
///       built from reports under either transport); the wire/chunk-* kinds
///       of the retired cross-worker eval-batch relay are gone.
inline constexpr std::uint32_t kWireVersion = 3;

/// Largest frame body accepted — shared by the transport (a corrupted length
/// prefix must fail the channel, not drive a multi-gigabyte allocation) and
/// by the serve daemon's admission check (a submission this large could never
/// be answered over the same channel; see serve::DaemonConfig).
inline constexpr std::uint64_t kMaxFrameBytes = 1ull << 30;

// Message kinds (checkpoint-container `kind` strings) of the distributed
// coordinator/worker protocol.
inline constexpr char kMsgRunRound[] = "wire/run-round";
inline constexpr char kMsgRoundResult[] = "wire/round-result";
inline constexpr char kMsgBarrier[] = "wire/barrier";
inline constexpr char kMsgRestore[] = "wire/restore";
inline constexpr char kMsgRestoreAck[] = "wire/restore-ack";
inline constexpr char kMsgHarvest[] = "wire/harvest";
inline constexpr char kMsgHarvestResult[] = "wire/harvest-result";
inline constexpr char kMsgShutdown[] = "wire/shutdown";

// Message kinds of the sizing service (serve::Daemon <-> serve::Client;
// protocol reference in docs/SERVICE.md).
inline constexpr char kMsgSubmit[] = "serve/submit";
inline constexpr char kMsgAccepted[] = "serve/accepted";
inline constexpr char kMsgRejected[] = "serve/rejected";
inline constexpr char kMsgStatus[] = "serve/status";
inline constexpr char kMsgStatusReply[] = "serve/status-reply";
inline constexpr char kMsgStream[] = "serve/stream";
inline constexpr char kMsgProgress[] = "serve/progress";
inline constexpr char kMsgResult[] = "serve/result";
inline constexpr char kMsgCancel[] = "serve/cancel";
inline constexpr char kMsgServeShutdown[] = "serve/shutdown";
inline constexpr char kMsgOk[] = "serve/ok";

/// Whether `kind` is a message this build speaks.
bool knownMessageKind(std::string_view kind);

/// Start a message: a CheckpointWriter of the given kind whose "wire"
/// section already records kWireVersion.
io::CheckpointWriter makeMessage(const std::string& kind);

/// Encode a finished message as one frame (length prefix + container bytes).
std::string encodeFrame(const io::CheckpointWriter& msg);

/// Best-effort extraction of the container `kind` string from a (possibly
/// partial) frame body prefix — no checksum or section validation, just the
/// fixed header walk. Returns "" when the prefix is too short or not a
/// container. FrameChannel uses it so oversized and truncated frames can be
/// reported by message kind, not only by size.
std::string peekFrameKind(std::string_view bodyPrefix);

/// Validate a frame body (the bytes after the length prefix): container
/// structure (magic/version/checksum via io::CheckpointReader), message kind,
/// and wire protocol version. `source` labels error messages.
io::CheckpointReader decodeFrame(const std::string& body,
                                 const std::string& source);

/// Blocking frame transport over one file descriptor (socketpair end).
/// Move-only; closes the descriptor on destruction.
class FrameChannel {
 public:
  FrameChannel() = default;
  /// Take ownership of `fd` (a connected SOCK_STREAM socket).
  explicit FrameChannel(int fd) : fd_(fd) {}
  ~FrameChannel() { close(); }

  FrameChannel(FrameChannel&& other) noexcept
      : fd_(other.fd_), rxOffset_(other.rxOffset_) {
    other.fd_ = -1;
    other.rxOffset_ = 0;
  }
  FrameChannel& operator=(FrameChannel&& other) noexcept {
    if (this != &other) {
      close();
      fd_ = other.fd_;
      rxOffset_ = other.rxOffset_;
      other.fd_ = -1;
      other.rxOffset_ = 0;
    }
    return *this;
  }
  FrameChannel(const FrameChannel&) = delete;
  FrameChannel& operator=(const FrameChannel&) = delete;

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }
  void close();

  /// Write one complete frame; throws WireError when the peer is gone
  /// (EPIPE/ECONNRESET — a dead worker must be a typed event, not SIGPIPE).
  void send(const io::CheckpointWriter& msg);
  /// Read one complete frame and validate it (decodeFrame). Throws WireError
  /// on EOF — clean or mid-frame — and on I/O errors; `source` labels errors.
  /// Oversized and truncated frames are reported with the offending message
  /// kind (best effort, via peekFrameKind) and the byte offset of the frame
  /// in the receive stream, so a wire post-mortem can say *which* message
  /// went bad, not just how large it claimed to be.
  io::CheckpointReader recv(const std::string& source);

  /// Total bytes consumed from the receive stream so far (frame prefixes +
  /// bodies of successfully and unsuccessfully read frames).
  std::uint64_t rxOffset() const { return rxOffset_; }

 private:
  int fd_ = -1;
  std::uint64_t rxOffset_ = 0;  ///< receive-stream bytes consumed
};

// ---- Payload codecs ------------------------------------------------------
//
// Shared by the coordinator and worker sides of orch/distributed.cpp (and by
// the wire fuzz tests / micro-bench, which build representative frames).
// Every writeX/readX pair round-trips bitwise; readers throw
// io::CheckpointError on malformed fields.

/// One (key, result) pair of a round's shared-cache publish list.
using PublishEntry = eval::PublishEntry;

/// What one job's round produced — everything the scheduler's barrier reads.
/// Both transports produce it (orch::stepJob); the process transport also
/// ships it as part of a round-result message.
struct JobRoundReport {
  std::size_t jobIndex = 0;
  std::string stepError;  ///< empty = step() returned; else the what() text
  bool finished = false;  ///< Strategy::finished() after the step
  std::size_t iterations = 0;  ///< outcome().iterations after the step
  bool solved = false;         ///< outcome().solved after the step
  double bestValue = 0.0;      ///< outcome().bestValue after the step
  eval::EvalStats stats;
  eval::FailureRecord firstFailure;
  std::vector<PublishEntry> publishes;
  /// Post-step checkpoint blob — worker processes only, where it is what a
  /// respawned worker restores from (empty when the strategy cannot
  /// checkpoint: such a job is not recoverable across a worker death).
  std::string strategyBlob;
};

/// Mirror-probe tallies of one shard since the previous round-result.
struct ShardDelta {
  std::size_t shard = 0;
  std::size_t hits = 0;
  std::size_t misses = 0;
};

/// Everything a strategy outcome + engine accounting harvest ships.
struct JobHarvest {
  std::size_t jobIndex = 0;
  opt::StrategyOutcome outcome;
  pvt::EdaLedger engineLedger;  ///< live engine ledger (quarantine override)
  eval::EvalStats engineStats;  ///< live engine stats (quarantine override)
};

void writeEvalKey(io::SectionWriter& w, const eval::EvalKey& key);
eval::EvalKey readEvalKey(io::SectionReader& r);

void writeOutcome(io::SectionWriter& w, const opt::StrategyOutcome& o);
opt::StrategyOutcome readOutcome(io::SectionReader& r);

void writePublishes(io::SectionWriter& w,
                    const std::vector<PublishEntry>& entries);
std::vector<PublishEntry> readPublishes(io::SectionReader& r);

void writeJobRoundReport(io::SectionWriter& w, const JobRoundReport& rep);
JobRoundReport readJobRoundReport(io::SectionReader& r);

void writeShardDeltas(io::SectionWriter& w,
                      const std::vector<ShardDelta>& deltas);
std::vector<ShardDelta> readShardDeltas(io::SectionReader& r);

void writeJobHarvest(io::SectionWriter& w, const JobHarvest& h);
JobHarvest readJobHarvest(io::SectionReader& r);

/// Full per-job report row (the serve daemon ships these to clients as the
/// final result table; the daemon manifest persists them for completed jobs).
void writeJobResult(io::SectionWriter& w, const JobResult& r);
JobResult readJobResult(io::SectionReader& r);

}  // namespace trdse::orch::wire
