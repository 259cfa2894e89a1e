// Section-level serializers for the repo's stateful components.
//
// Each write*/read* pair encodes one component into / out of a checkpoint
// section (see io/checkpoint.hpp for the container). Readers throw
// CheckpointError on any malformed field — shape mismatches, non-finite
// network parameters, out-of-range enums — so a restore either reproduces the
// saved state bit-exactly or fails with a descriptive message.
//
// RNG streams travel as the state words std::mt19937_64's stream operators
// define, each stored as a u64: bit-exact, which is what makes resumed
// searches reproduce uninterrupted ones bitwise.
#pragma once

#include <random>

#include "core/local_dataset.hpp"
#include "core/problem.hpp"
#include "core/surrogate.hpp"
#include "io/checkpoint.hpp"
#include "nn/mlp.hpp"
#include "nn/optimizer.hpp"
#include "nn/scaler.hpp"
#include "pvt/ledger.hpp"

namespace trdse::io {

/// Encode a network: shape, activations, flat parameters.
void writeMlp(SectionWriter& w, const nn::Mlp& net);
/// Decode a network written by writeMlp; rejects shape garbage and
/// non-finite parameters.
nn::Mlp readMlp(SectionReader& r);

/// Encode Adam state (step count + both moment vectors).
void writeAdam(SectionWriter& w, const nn::AdamOptimizer& opt);
/// Decode Adam state written by writeAdam into `opt`. Rejects non-finite
/// moments; when `expectedParams` is non-zero the moment vectors must be
/// empty (freshly reset) or exactly that long — a silent size mismatch would
/// make AdamOptimizer::step discard the restored state.
void readAdam(SectionReader& r, nn::AdamOptimizer& opt,
              std::size_t expectedParams = 0);

/// Encode fitted standardizer statistics (mean/std, possibly empty).
void writeStandardizer(SectionWriter& w, const nn::Standardizer& s);
/// Decode statistics written by writeStandardizer into `s`.
void readStandardizer(SectionReader& r, nn::Standardizer& s);

/// Encode an RNG stream's exact position: the words of its textual state,
/// as a length-prefixed u64 vector (about 2.5 KB).
void writeRng(SectionWriter& w, const std::mt19937_64& rng);
/// Decode a stream written by writeRng into `rng`; throws unless the engine
/// takes exactly the stored words.
void readRng(SectionReader& r, std::mt19937_64& rng);

/// Encode one evaluation result (ok flag + measurement vector).
void writeEvalResult(SectionWriter& w, const core::EvalResult& e);
/// Decode a result written by writeEvalResult.
core::EvalResult readEvalResult(SectionReader& r);

/// Encode a trajectory dataset (paired unit-space inputs and measurements).
void writeDataset(SectionWriter& w, const core::LocalDataset& d);
/// Decode a dataset written by writeDataset into `d` (replacing contents).
void readDataset(SectionReader& r, core::LocalDataset& d);

/// Encode a surrogate's full training state: network, Adam moments, both
/// scalers, and the currently-loaded training pairs.
void writeSurrogate(SectionWriter& w, const core::SpiceSurrogate& s);
/// Decode state written by writeSurrogate into an already-constructed
/// surrogate of the same input/output shape (throws on shape mismatch).
void readSurrogate(SectionReader& r, core::SpiceSurrogate& s);

/// Encode the EDA-block timeline.
void writeLedger(SectionWriter& w, const pvt::EdaLedger& ledger);
/// Decode a timeline written by writeLedger into `ledger`.
void readLedger(SectionReader& r, pvt::EdaLedger& ledger);

}  // namespace trdse::io
