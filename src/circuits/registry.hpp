// Declarative scenario construction: every circuit the repo knows how to
// size — two-stage opamp, folded cascode, LDO, ICO — registered by name with
// its default process card, specs, and corner set, so examples, tests, and
// benches build a ready-to-run SizingProblem from a pair of strings instead
// of hand-wiring the circuit class, design space, value function, and
// evaluation lambda at every call site.
//
// A registry problem carries its one-point evaluator (a one-slot pass of the
// circuit's lane pipeline) and the fused corner-batch one, so
// EvalEngine(problem) gets a lane-batched CallbackBackend from it. The
// registry is extensible: user code can add() its own entries and construct
// them through the same declarative path.
#pragma once

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "core/problem.hpp"
#include "sim/process.hpp"

namespace trdse::circuits {

/// Factory: build a ready-to-run problem (default specs) on `card` with the
/// given sign-off corners.
using ProblemFactory = std::function<core::SizingProblem(
    const sim::ProcessCard& card, std::vector<sim::PvtCorner> corners)>;

/// One registered circuit scenario.
struct CircuitEntry {
  std::string name;            ///< registry key, e.g. "two_stage_opamp"
  std::string defaultProcess;  ///< card used when no process override given
  std::string description;     ///< one-line human description
  ProblemFactory make;         ///< problem builder with default specs
};

/// Name-keyed catalogue of sizing scenarios.
class Registry {
 public:
  /// The process-wide registry, pre-seeded with the four paper circuits:
  /// "two_stage_opamp" (bsim45), "folded_cascode" (bsim45), "ldo" (n6),
  /// "ico" (n5).
  static Registry& global();

  /// Register a scenario; throws std::invalid_argument on a duplicate name.
  void add(CircuitEntry entry);

  /// Whether `name` is registered.
  bool contains(std::string_view name) const;

  /// Entry for `name`; throws std::invalid_argument (naming the unknown
  /// circuit and listing the known ones) when absent.
  const CircuitEntry& at(std::string_view name) const;

  /// Registered names in registration order.
  std::vector<std::string> names() const;

  /// Build the named scenario. Empty `corners` means a single TT corner at
  /// the card's nominal supply and 27 C; empty `process` means the entry's
  /// default card. Unknown circuit or process names throw
  /// std::invalid_argument.
  core::SizingProblem makeProblem(std::string_view circuit,
                                  std::vector<sim::PvtCorner> corners = {},
                                  std::string_view process = {}) const;

 private:
  std::vector<CircuitEntry> entries_;
};

}  // namespace trdse::circuits
