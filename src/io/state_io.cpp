#include "io/state_io.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <locale>
#include <sstream>

namespace trdse::io {

namespace {

/// Shared guard: measurement/parameter vectors must be finite to be state.
void requireFinite(SectionReader& r, const linalg::Vector& v,
                   const char* what) {
  if (std::any_of(v.begin(), v.end(),
                  [](double x) { return !std::isfinite(x); }))
    r.fail(std::string(what) + " contains non-finite values");
}

}  // namespace

void writeMlp(SectionWriter& w, const nn::Mlp& net) {
  const nn::MlpConfig& cfg = net.config();
  w.indexVec(cfg.layerSizes);
  w.u8(static_cast<std::uint8_t>(cfg.hidden));
  w.u8(static_cast<std::uint8_t>(cfg.output));
  w.vec(net.getParameters());
}

nn::Mlp readMlp(SectionReader& r) {
  nn::MlpConfig cfg;
  cfg.layerSizes = r.indexVec();
  if (cfg.layerSizes.size() < 2 || cfg.layerSizes.size() > 64)
    r.fail("implausible layer count " +
           std::to_string(cfg.layerSizes.size()));
  for (const std::size_t s : cfg.layerSizes)
    if (s == 0 || s > (1u << 20)) r.fail("implausible layer width");
  const std::uint8_t hidden = r.u8();
  const std::uint8_t output = r.u8();
  if (hidden > 2 || output > 2) r.fail("unknown activation id");
  cfg.hidden = static_cast<nn::Activation>(hidden);
  cfg.output = static_cast<nn::Activation>(output);
  nn::Mlp net(cfg, /*seed=*/0);
  const linalg::Vector params = r.vec();
  if (params.size() != net.parameterCount())
    r.fail("parameter count " + std::to_string(params.size()) +
           " does not match the declared shape (" +
           std::to_string(net.parameterCount()) + ")");
  requireFinite(r, params, "network parameters");
  net.setParameters(params);
  return net;
}

void writeAdam(SectionWriter& w, const nn::AdamOptimizer& opt) {
  w.i64(opt.stepCount());
  w.vec(opt.firstMoments());
  w.vec(opt.secondMoments());
}

void readAdam(SectionReader& r, nn::AdamOptimizer& opt,
              std::size_t expectedParams) {
  const std::int64_t t = r.i64();
  linalg::Vector m = r.vec();
  linalg::Vector v = r.vec();
  if (m.size() != v.size()) r.fail("Adam moment vectors disagree in size");
  if (t < 0) r.fail("negative Adam step count");
  if (expectedParams != 0 && !m.empty() && m.size() != expectedParams)
    r.fail("Adam moment length " + std::to_string(m.size()) +
           " does not match the network's " +
           std::to_string(expectedParams) + " parameters");
  requireFinite(r, m, "Adam first moments");
  requireFinite(r, v, "Adam second moments");
  opt.restoreState(static_cast<long>(t), std::move(m), std::move(v));
}

void writeStandardizer(SectionWriter& w, const nn::Standardizer& s) {
  w.vec(s.mean());
  w.vec(s.std());
}

void readStandardizer(SectionReader& r, nn::Standardizer& s) {
  linalg::Vector mean = r.vec();
  linalg::Vector std = r.vec();
  if (mean.size() != std.size())
    r.fail("standardizer mean/std disagree in size");
  s.set(std::move(mean), std::move(std));
}

void writeRng(SectionWriter& w, const std::mt19937_64& rng) {
  // The standard exposes the engine's state only through its stream
  // operators, as space-separated decimal words. Classic locale, always: a
  // grouping global locale (common in GUI/EDA embeddings) would render the
  // words with thousands separators.
  std::ostringstream os;
  os.imbue(std::locale::classic());
  os << rng;
  const std::string text = os.str();
  std::vector<std::size_t> words;
  for (const char* p = text.data(); p != text.data() + text.size();) {
    if (*p == ' ') {
      ++p;
      continue;
    }
    std::uint64_t word = 0;
    p = std::from_chars(p, text.data() + text.size(), word).ptr;
    words.push_back(word);
  }
  w.indexVec(words);
}

void readRng(SectionReader& r, std::mt19937_64& rng) {
  std::string text;
  char digits[24];
  for (const std::size_t word : r.indexVec()) {
    text.append(digits, std::to_chars(digits, digits + sizeof digits,
                                      static_cast<std::uint64_t>(word))
                            .ptr);
    text.push_back(' ');
  }
  std::istringstream is(text);
  is.imbue(std::locale::classic());
  is >> rng;
  // The engine must take every word: a short or long list is not its state.
  if (!is || !(is >> std::ws).eof()) r.fail("unparsable mt19937_64 state");
}

void writeEvalResult(SectionWriter& w, const core::EvalResult& e) {
  w.boolean(e.ok);
  w.vec(e.measurements);
  w.u8(static_cast<std::uint8_t>(e.failure));
}

core::EvalResult readEvalResult(SectionReader& r) {
  core::EvalResult e;
  e.ok = r.boolean();
  e.measurements = r.vec();
  const std::uint8_t failure = r.u8();
  if (failure > static_cast<std::uint8_t>(sim::FaultClass::kNonFinite))
    r.fail("unknown fault class " + std::to_string(failure));
  e.failure = static_cast<sim::FaultClass>(failure);
  return e;
}

void writeDataset(SectionWriter& w, const core::LocalDataset& d) {
  w.u64(d.size());
  for (std::size_t i = 0; i < d.size(); ++i) {
    w.vec(d.inputs()[i]);
    w.vec(d.targets()[i]);
  }
}

void readDataset(SectionReader& r, core::LocalDataset& d) {
  d.clear();
  const std::uint64_t n = r.u64();
  for (std::uint64_t i = 0; i < n; ++i) {
    linalg::Vector in = r.vec();
    linalg::Vector out = r.vec();
    d.add(std::move(in), std::move(out));
  }
}

void writeSurrogate(SectionWriter& w, const core::SpiceSurrogate& s) {
  writeMlp(w, s.network());
  writeAdam(w, s.optimizer());
  writeStandardizer(w, s.inputScaler());
  writeStandardizer(w, s.outputScaler());
  w.u64(s.sampleCount());
  for (std::size_t i = 0; i < s.sampleCount(); ++i) {
    w.vec(s.sampleInputs()[i]);
    w.vec(s.sampleTargets()[i]);
  }
}

void readSurrogate(SectionReader& r, core::SpiceSurrogate& s) {
  nn::Mlp net = readMlp(r);
  if (net.inputDim() != s.network().inputDim() ||
      net.outputDim() != s.network().outputDim())
    r.fail("surrogate shape mismatch: checkpoint is " +
           std::to_string(net.inputDim()) + "->" +
           std::to_string(net.outputDim()) + ", target is " +
           std::to_string(s.network().inputDim()) + "->" +
           std::to_string(s.network().outputDim()));
  s.network() = std::move(net);
  readAdam(r, s.optimizer(), s.network().parameterCount());
  readStandardizer(r, s.inputScaler());
  readStandardizer(r, s.outputScaler());
  const std::uint64_t n = r.u64();
  std::vector<linalg::Vector> inputs;
  std::vector<linalg::Vector> targets;
  inputs.reserve(n);
  targets.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    inputs.push_back(r.vec());
    targets.push_back(r.vec());
  }
  s.setData(std::move(inputs), std::move(targets));
}

void writeLedger(SectionWriter& w, const pvt::EdaLedger& ledger) {
  w.u64(ledger.totalBlocks());
  for (const pvt::EdaBlock& b : ledger.blocks()) {
    w.u64(b.cornerIndex);
    w.u8(static_cast<std::uint8_t>(b.kind));
    w.boolean(b.meetsSpec);
    w.boolean(b.cached);
    w.boolean(b.failed);
    w.u32(b.retries);
    w.u32(b.backoff);
  }
}

void readLedger(SectionReader& r, pvt::EdaLedger& ledger) {
  const std::uint64_t n = r.u64();
  std::vector<pvt::EdaBlock> blocks;
  blocks.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    pvt::EdaBlock b;
    b.cornerIndex = r.u64();
    const std::uint8_t kind = r.u8();
    if (kind > 1) r.fail("unknown EDA block kind");
    b.kind = static_cast<pvt::BlockKind>(kind);
    b.meetsSpec = r.boolean();
    b.cached = r.boolean();
    b.failed = r.boolean();
    b.retries = r.u32();
    b.backoff = r.u32();
    if (b.failed && b.cached) r.fail("EDA block is both cached and failed");
    blocks.push_back(b);
  }
  ledger.restoreBlocks(std::move(blocks));
}

}  // namespace trdse::io
