// Miller-compensated two-stage operational amplifier — the development
// vehicle of the paper's Sections V-B..V-D (BSIM 45nm and 22nm).
//
// Topology (Allen & Holberg style):
//   M1/M2  NMOS differential pair        M3/M4  PMOS current-mirror load
//   M5     NMOS tail current source      M6     PMOS common-source 2nd stage
//   M7     NMOS output current sink      M8     NMOS bias diode (Ibias ref)
//   Cc     Miller compensation           CL     fixed load capacitance
//
// Nine sizing variables span ~10^14 grid combinations, matching the paper's
// reported design-space size. The gain <-> phase-margin trade-off the paper
// highlights (high gain designs ride the unstable-PM cliff) emerges from the
// RHP zero gm6/Cc and the second pole gm6/CL.
#pragma once

#include "core/problem.hpp"
#include "sim/netlist.hpp"
#include "sim/process.hpp"

namespace trdse::circuits {

class TwoStageOpamp {
 public:
  /// Sizing vector layout (all SI units).
  enum Param : std::size_t {
    kW1 = 0,   ///< diff pair width [m]
    kW3,       ///< mirror load width [m]
    kW5,       ///< tail source width [m]
    kW6,       ///< 2nd-stage PMOS width [m]
    kW7,       ///< output sink width [m]
    kL12,      ///< 1st-stage length [m]
    kL67,      ///< 2nd-stage / bias length [m]
    kCc,       ///< Miller capacitor [F]
    kIbias,    ///< bias reference current [A]
    kParamCount
  };

  explicit TwoStageOpamp(const sim::ProcessCard& card);

  /// Measurement vector layout.
  static const std::vector<std::string>& measurementNames();
  enum Meas : std::size_t { kGainDb = 0, kUgbwHz, kPmDeg, kPowerMw, kMeasCount };

  /// The 9-D grid (~1e14 points).
  static core::DesignSpace designSpace(const sim::ProcessCard& card);

  /// A fully-stamped testbench: netlist + the handles measurement needs.
  struct Testbench {
    sim::Netlist netlist;
    sim::NodeId out = sim::kGround;
    std::size_t vddSource = 0;
    std::size_t inpSource = 0;  ///< non-inverting input vsource index
    std::size_t innSource = 0;  ///< inverting input vsource index
    linalg::Vector initialGuess;
    double vdd = 1.1;
  };

  /// Build the testbench netlist for a sizing under a corner; exposed so
  /// mismatch/yield analyses can perturb the devices before measuring.
  Testbench buildTestbench(const linalg::Vector& sizes,
                           const sim::PvtCorner& corner) const;

  /// DC + AC measurement of an (optionally perturbed) testbench: a one-lane
  /// pass of the pipeline evaluateBatch() runs.
  static core::EvalResult measure(const Testbench& tb);

  /// Run DC + AC and extract {gain, UGBW, PM, power} (measure() of the built
  /// testbench). ok=false when the operating point fails to converge or the
  /// response never crosses unity.
  core::EvalResult evaluate(const linalg::Vector& sizes,
                            const sim::PvtCorner& corner) const;

  /// The measurement pipeline: the lane-blocked DC/AC engines
  /// (sim/op_batch.hpp) in chunks of sim::kSimLanes. results[i] does not
  /// depend on the chunk slot i shares: it is bitwise identical to
  /// evaluate(*sizes[i], corners[i]).
  void evaluateBatch(const linalg::Vector* const* sizes,
                     const sim::PvtCorner* corners, core::EvalResult* results,
                     std::size_t count) const;

  /// Active + capacitor area estimate [µm^2].
  double area(const linalg::Vector& sizes) const;

  /// Ready-to-search problem definition on this card with default specs.
  core::SizingProblem makeProblem(std::vector<sim::PvtCorner> corners,
                                  std::vector<core::Spec> specs) const;

  /// Development-phase default specs for this card (calibrated so that a
  /// few-in-1e4 fraction of the space is feasible — hard but solvable).
  std::vector<core::Spec> defaultSpecs() const;

  const sim::ProcessCard& card() const { return card_; }

 private:
  const sim::ProcessCard& card_;
};

}  // namespace trdse::circuits
