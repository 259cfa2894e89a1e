#include "io/checkpoint.hpp"

#include <bit>
#include <cstdio>
#include <fstream>
#include <sstream>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <unistd.h>
#endif

namespace trdse::io {

namespace {

/// Best-effort fsync of a path (file or directory) so the atomic-rename
/// checkpoint update survives power loss, not just process death. No-op on
/// platforms without POSIX fsync.
void syncPath(const std::string& path) {
#if defined(__unix__) || defined(__APPLE__)
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd >= 0) {
    ::fsync(fd);
    ::close(fd);
  }
#else
  (void)path;
#endif
}

constexpr std::uint32_t kMagic = 0x4B434454;  // "TDCK" little-endian

// Hard bounds on length prefixes: a corrupted length must fail with a
// descriptive error, not an allocation of the corrupted value.
constexpr std::uint64_t kMaxElements = 1ull << 32;
constexpr std::uint64_t kMaxStringBytes = 1ull << 32;

void appendU32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}

void appendU64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}

std::uint32_t parseU32(const char* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i)
    v |= static_cast<std::uint32_t>(static_cast<unsigned char>(p[i])) << (8 * i);
  return v;
}

std::uint64_t parseU64(const char* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i)
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(p[i])) << (8 * i);
  return v;
}

}  // namespace

std::uint64_t fnv1a64(const char* data, std::size_t n) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= static_cast<unsigned char>(data[i]);
    h *= 0x100000001b3ull;
  }
  return h;
}

// ---- SectionWriter --------------------------------------------------------

void SectionWriter::u32(std::uint32_t v) { appendU32(buf_, v); }

void SectionWriter::u64(std::uint64_t v) { appendU64(buf_, v); }

void SectionWriter::f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

void SectionWriter::str(const std::string& s) {
  u64(s.size());
  buf_.append(s);
}

void SectionWriter::vec(const linalg::Vector& v) {
  u64(v.size());
  for (const double x : v) f64(x);
}

void SectionWriter::indexVec(const std::vector<std::size_t>& v) {
  u64(v.size());
  for (const std::size_t x : v) u64(x);
}

// ---- SectionReader --------------------------------------------------------

void SectionReader::need(std::size_t n) const {
  if (bytes_.size() - pos_ < n)
    fail("truncated: needed " + std::to_string(n) + " more bytes, " +
         std::to_string(bytes_.size() - pos_) + " remain");
}

void SectionReader::fail(const std::string& what) const {
  throw CheckpointError("checkpoint section '" + name_ + "': " + what);
}

std::uint8_t SectionReader::u8() {
  need(1);
  return static_cast<std::uint8_t>(bytes_[pos_++]);
}

bool SectionReader::boolean() {
  const std::uint8_t v = u8();
  if (v > 1) fail("invalid boolean byte " + std::to_string(v));
  return v == 1;
}

std::uint32_t SectionReader::u32() {
  need(4);
  const std::uint32_t v = parseU32(bytes_.data() + pos_);
  pos_ += 4;
  return v;
}

std::uint64_t SectionReader::u64() {
  need(8);
  const std::uint64_t v = parseU64(bytes_.data() + pos_);
  pos_ += 8;
  return v;
}

double SectionReader::f64() { return std::bit_cast<double>(u64()); }

std::string SectionReader::str() {
  const std::uint64_t n = u64();
  if (n > kMaxStringBytes) fail("string length " + std::to_string(n) +
                                " exceeds sanity bound");
  need(n);
  std::string s(bytes_.data() + pos_, n);
  pos_ += n;
  return s;
}

std::string SectionReader::raw(std::size_t n) {
  need(n);
  std::string s(bytes_.data() + pos_, n);
  pos_ += n;
  return s;
}

linalg::Vector SectionReader::vec() {
  const std::uint64_t n = u64();
  if (n > kMaxElements) fail("vector length " + std::to_string(n) +
                             " exceeds sanity bound");
  need(n * 8);
  linalg::Vector v(n);
  for (auto& x : v) x = f64();
  return v;
}

std::vector<std::size_t> SectionReader::indexVec() {
  const std::uint64_t n = u64();
  if (n > kMaxElements) fail("index-vector length " + std::to_string(n) +
                             " exceeds sanity bound");
  need(n * 8);
  std::vector<std::size_t> v(n);
  for (auto& x : v) x = u64();
  return v;
}

void SectionReader::expectEnd() const {
  if (remaining() != 0)
    throw CheckpointError("checkpoint section '" + name_ + "': " +
                          std::to_string(remaining()) +
                          " unread trailing bytes (format mismatch)");
}

// ---- CheckpointWriter -----------------------------------------------------

SectionWriter& CheckpointWriter::section(const std::string& name) {
  for (auto& [n, w] : sections_)
    if (n == name) return w;
  sections_.emplace_back(name, SectionWriter{});
  return sections_.back().second;
}

std::string CheckpointWriter::finish() const {
  // Body: kind, section table, payloads. Checksummed as one unit so any
  // bit flip below the header is caught before state is trusted.
  std::string body;
  appendU64(body, kind_.size());
  body.append(kind_);
  appendU32(body, static_cast<std::uint32_t>(sections_.size()));
  for (const auto& [name, w] : sections_) {
    appendU64(body, name.size());
    body.append(name);
    appendU64(body, w.bytes().size());
  }
  for (const auto& [name, w] : sections_) body.append(w.bytes());

  std::string out;
  appendU32(out, kMagic);
  appendU32(out, kCheckpointFormatVersion);
  appendU64(out, fnv1a64(body.data(), body.size()));
  out.append(body);
  return out;
}

void writeFileAtomic(const std::string& path, const std::string& bytes) {
  // Write-to-temp + rename so the update is atomic: the periodic
  // auto-checkpoint overwrites one path, and a crash mid-write must leave
  // the previous good snapshot intact (that crash is exactly the scenario
  // checkpoints exist for).
  const std::string tmp = path + ".tmp";
  {
    std::ofstream f(tmp, std::ios::binary | std::ios::trunc);
    if (!f)
      throw CheckpointError("cannot create checkpoint file '" + tmp + "'");
    f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    f.flush();
    if (!f)
      throw CheckpointError("short write to checkpoint file '" + tmp + "'");
  }
  // Data blocks must hit disk before the rename becomes visible, or a power
  // loss could persist the rename ahead of the data and destroy both the new
  // and the previous snapshot.
  syncPath(tmp);
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw CheckpointError("cannot move checkpoint into place at '" + path +
                          "'");
  }
  const std::size_t slash = path.find_last_of('/');
  syncPath(slash == std::string::npos ? "." : path.substr(0, slash + 1));
}

std::string readFileBytes(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f)
    throw CheckpointError("cannot open checkpoint file '" + path + "'");
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

void CheckpointWriter::writeFile(const std::string& path) const {
  writeFileAtomic(path, finish());
}

// ---- CheckpointReader -----------------------------------------------------

CheckpointReader::CheckpointReader(std::string source, const std::string& blob)
    : source_(std::move(source)) {
  const auto fail = [&](const std::string& what) -> void {
    throw CheckpointError("checkpoint '" + source_ + "': " + what);
  };
  if (blob.size() < 16) fail("truncated header (" +
                             std::to_string(blob.size()) + " bytes)");
  if (parseU32(blob.data()) != kMagic)
    fail("bad magic — not a TDCK checkpoint file");
  const std::uint32_t version = parseU32(blob.data() + 4);
  if (version != kCheckpointFormatVersion)
    fail("unsupported format version " + std::to_string(version) +
         " (this build reads version " +
         std::to_string(kCheckpointFormatVersion) + " only)");
  const std::uint64_t checksum = parseU64(blob.data() + 8);
  const char* body = blob.data() + 16;
  const std::size_t bodySize = blob.size() - 16;
  if (fnv1a64(body, bodySize) != checksum)
    fail("body checksum mismatch — file is corrupt or truncated");

  // Parse the checksummed body with a SectionReader for bounds safety.
  const std::string bodyBytes(body, bodySize);
  SectionReader r("header", bodyBytes);
  try {
    kind_ = r.str();
    const std::uint32_t count = r.u32();
    std::vector<std::pair<std::string, std::uint64_t>> table;
    table.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
      std::string name = r.str();
      const std::uint64_t size = r.u64();
      table.emplace_back(std::move(name), size);
    }
    for (const auto& [name, size] : table) {
      std::string payload = r.raw(size);
      if (!sections_.emplace(name, std::move(payload)).second)
        fail("duplicate section '" + name + "'");
    }
    r.expectEnd();
  } catch (const CheckpointError& e) {
    fail(std::string("malformed body: ") + e.what());
  }
}

CheckpointReader CheckpointReader::fromFile(const std::string& path) {
  return CheckpointReader(path, readFileBytes(path));
}

void CheckpointReader::expectKind(const std::string& kind) const {
  if (kind_ != kind)
    throw CheckpointError("checkpoint '" + source_ + "' holds a '" + kind_ +
                          "' snapshot, expected '" + kind + "'");
}

bool CheckpointReader::hasSection(const std::string& name) const {
  return sections_.count(name) != 0;
}

SectionReader CheckpointReader::section(const std::string& name) const {
  const auto it = sections_.find(name);
  if (it == sections_.end())
    throw CheckpointError("checkpoint '" + source_ + "': missing section '" +
                          name + "'");
  return SectionReader(name, it->second);
}

}  // namespace trdse::io
