// Versioned binary checkpoint container (the `.ckpt` format).
//
// Every durable artifact in the repo — mid-run PvtSearch / SizingSession
// state, RL trainer snapshots, process-porting donor weights — is one file in
// this container format:
//
//   [u32 magic "TDCK"] [u32 format version] [u64 FNV-1a checksum of body]
//   body := [kind string] [u32 section count]
//           { [name string] [u64 size] [payload bytes] } per section
//
// All integers are little-endian by construction (byte-shift encoding, never
// memcpy of host representations) and doubles travel as the little-endian
// bytes of their IEEE-754 bit pattern, so files are endian-stable and
// bit-exact across machines: restoring a checkpoint reproduces every weight,
// moment and RNG stream bitwise. The `kind` string identifies what produced
// the file ("pvt-search", "rl-trainer", ...) so restoring into the wrong
// consumer fails with a descriptive error instead of garbage state.
//
// Error handling is exception-based: every malformed input — bad magic,
// unsupported version, truncation, checksum mismatch, missing or undersized
// section — throws CheckpointError with a message naming the file and the
// violated invariant.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "linalg/matrix.hpp"

namespace trdse::io {

/// Thrown on any malformed checkpoint: bad magic, unsupported version,
/// truncated payload, checksum mismatch, missing section, or a section field
/// that fails validation on read.
class CheckpointError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// The one container format version this build writes and reads
/// (docs/CHECKPOINTS.md). Version 2 added the fault-tolerance fields —
/// EvalResult's FaultClass byte, EdaBlock's failed/retries/backoff and
/// EvalStats' attempt/failure/backoff counters — and version-1 files are
/// refused.
inline constexpr std::uint32_t kCheckpointFormatVersion = 2;

/// Append-only encoder for one section's payload. All write methods encode
/// little-endian regardless of host byte order.
class SectionWriter {
 public:
  /// One unsigned byte.
  void u8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  /// Bool as one byte (0/1).
  void boolean(bool v) { u8(v ? 1 : 0); }
  /// 32-bit unsigned, little-endian.
  void u32(std::uint32_t v);
  /// 64-bit unsigned, little-endian.
  void u64(std::uint64_t v);
  /// 64-bit signed (two's complement bits via u64).
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  /// IEEE-754 double as its little-endian bit pattern (bit-exact round trip).
  void f64(double v);
  /// Length-prefixed byte string.
  void str(const std::string& s);
  /// Length-prefixed vector of f64.
  void vec(const linalg::Vector& v);
  /// Length-prefixed vector of u64 (grid indices, counters).
  void indexVec(const std::vector<std::size_t>& v);

  /// Encoded payload so far.
  const std::string& bytes() const { return buf_; }

 private:
  std::string buf_;
};

/// Cursor over one section's payload. Every read method throws
/// CheckpointError (naming the section) when the remaining bytes are too few
/// — a truncated file can never be silently misread as valid state.
class SectionReader {
 public:
  /// Wrap a payload; `name` labels error messages.
  SectionReader(std::string name, const std::string& bytes)
      : name_(std::move(name)), bytes_(bytes) {}

  /// One unsigned byte.
  std::uint8_t u8();
  /// Bool from one byte; throws on values other than 0/1.
  bool boolean();
  /// 32-bit unsigned, little-endian.
  std::uint32_t u32();
  /// 64-bit unsigned, little-endian.
  std::uint64_t u64();
  /// 64-bit signed.
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  /// IEEE-754 double from its little-endian bit pattern.
  double f64();
  /// Length-prefixed byte string.
  std::string str();
  /// Exactly `n` raw bytes.
  std::string raw(std::size_t n);
  /// Length-prefixed vector of f64.
  linalg::Vector vec();
  /// Length-prefixed vector of u64.
  std::vector<std::size_t> indexVec();

  /// Bytes not yet consumed.
  std::size_t remaining() const { return bytes_.size() - pos_; }
  /// Throw CheckpointError unless the section was consumed exactly.
  void expectEnd() const;
  /// Throw a CheckpointError naming this section.
  [[noreturn]] void fail(const std::string& what) const;

 private:
  void need(std::size_t n) const;

  std::string name_;
  const std::string& bytes_;
  std::size_t pos_ = 0;
};

/// Assembles a checkpoint file: named sections built through SectionWriter,
/// finalized with header, section table and body checksum.
class CheckpointWriter {
 public:
  /// @param kind  producer tag checked on restore (e.g. "pvt-search").
  explicit CheckpointWriter(std::string kind) : kind_(std::move(kind)) {}

  /// Start (or continue) the named section. Sections are emitted in first-use
  /// order; reusing a name appends to the existing section. The returned
  /// reference stays valid for the writer's lifetime (deque-backed), so
  /// callers may interleave writes to several open sections.
  SectionWriter& section(const std::string& name);

  /// Serialize header + table + payloads; the blob is the on-disk format.
  std::string finish() const;

  /// writeFileAtomic(path, finish()).
  void writeFile(const std::string& path) const;

 private:
  std::string kind_;
  /// deque, not vector: section() hands out references that must survive
  /// later insertions.
  std::deque<std::pair<std::string, SectionWriter>> sections_;
};

/// Parses and validates a checkpoint blob (magic, version, checksum, section
/// table) and hands out SectionReaders.
class CheckpointReader {
 public:
  /// Parse a blob; `source` labels error messages (usually the path).
  /// Throws CheckpointError on any structural problem.
  CheckpointReader(std::string source, const std::string& blob);

  /// Read and parse a file; throws CheckpointError when missing/unreadable.
  static CheckpointReader fromFile(const std::string& path);

  /// Producer tag recorded at save time.
  const std::string& kind() const { return kind_; }
  /// Throw unless kind() matches (error names both kinds and the source).
  void expectKind(const std::string& kind) const;

  /// Whether the named section exists.
  bool hasSection(const std::string& name) const;
  /// Cursor over the named section; throws CheckpointError when absent.
  SectionReader section(const std::string& name) const;

 private:
  std::string source_;
  std::string kind_;
  std::map<std::string, std::string> sections_;
};

/// Write `bytes` to a temp file, then atomically rename it onto `path` — a
/// crash mid-write leaves any previous checkpoint at `path` intact. Throws
/// CheckpointError when the file cannot be created or fully written.
void writeFileAtomic(const std::string& path, const std::string& bytes);

/// The whole file at `path`; throws CheckpointError when it cannot be opened.
std::string readFileBytes(const std::string& path);

/// FNV-1a 64-bit hash (the body checksum).
std::uint64_t fnv1a64(const char* data, std::size_t n);

}  // namespace trdse::io
