// Circuit description consumed by the DC/AC/transient solvers.
//
// Node 0 is ground. MOSFET instances carry their *PVT-adjusted* parameters:
// circuit builders call applyPvt() while constructing the netlist for a given
// corner, so the solvers never need to know which corner they are running.
#pragma once

#include <cassert>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/mosfet.hpp"
#include "sim/process.hpp"

namespace trdse::sim {

using NodeId = int;
constexpr NodeId kGround = 0;

struct Resistor {
  NodeId a = kGround;
  NodeId b = kGround;
  double ohms = 0.0;
};

struct Capacitor {
  NodeId a = kGround;
  NodeId b = kGround;
  double farads = 0.0;
};

/// Independent voltage source; positive current flows p -> n through the
/// source. Contributes one MNA branch unknown.
struct VSource {
  NodeId p = kGround;
  NodeId n = kGround;
  double vdc = 0.0;
  double vac = 0.0;  ///< small-signal magnitude for AC analysis
};

/// Independent current source; current idc flows from p through the source
/// into n (SPICE convention).
struct ISource {
  NodeId p = kGround;
  NodeId n = kGround;
  double idc = 0.0;
  double iac = 0.0;
};

/// Voltage-controlled voltage source (E element): v(p,n) = gain * v(cp,cn).
struct Vcvs {
  NodeId p = kGround;
  NodeId n = kGround;
  NodeId cp = kGround;
  NodeId cn = kGround;
  double gain = 1.0;
};

/// Voltage-controlled current source (G element): i(p->n) = gm * v(cp,cn).
struct Vccs {
  NodeId p = kGround;
  NodeId n = kGround;
  NodeId cp = kGround;
  NodeId cn = kGround;
  double gm = 0.0;
};

/// Junction diode with the ideal exponential law (anode -> cathode).
struct Diode {
  NodeId a = kGround;
  NodeId k = kGround;
  double isat = 1e-14;  ///< saturation current [A]
  double emission = 1.5;
};

/// Inductor; contributes one MNA branch unknown (short in DC).
struct Inductor {
  NodeId a = kGround;
  NodeId b = kGround;
  double henry = 0.0;
};

struct MosInstance {
  std::string name;
  NodeId d = kGround;
  NodeId g = kGround;
  NodeId s = kGround;
  NodeId b = kGround;
  MosType type = MosType::kNmos;
  MosGeometry geom;
  MosParams params;  ///< already PVT-adjusted
};

class Netlist {
 public:
  /// Get-or-create a named node. "0" and "gnd" map to ground.
  NodeId node(const std::string& name);

  void addResistor(NodeId a, NodeId b, double ohms);
  void addCapacitor(NodeId a, NodeId b, double farads);
  /// Returns the source's index (used to read its branch current later).
  std::size_t addVSource(NodeId p, NodeId n, double vdc, double vac = 0.0);
  void addISource(NodeId p, NodeId n, double idc, double iac = 0.0);
  std::size_t addVcvs(NodeId p, NodeId n, NodeId cp, NodeId cn, double gain);
  void addVccs(NodeId p, NodeId n, NodeId cp, NodeId cn, double gm);
  void addDiode(NodeId a, NodeId k, double isat = 1e-14, double emission = 1.5);
  std::size_t addInductor(NodeId a, NodeId b, double henry);
  /// Returns the device's index into mosfets().
  std::size_t addMosfet(std::string name, NodeId d, NodeId g, NodeId s, NodeId b,
                        MosType type, const MosGeometry& geom,
                        const MosParams& params);

  std::size_t nodeCount() const { return nodeCount_; }  ///< includes ground
  /// Number of MNA unknowns: (nodes-1) + the branchCount() branch currents
  /// (vsources, vcvs and inductors).
  std::size_t unknownCount() const;
  /// MNA row/column of a node (node must not be ground).
  std::size_t nodeIndex(NodeId n) const {
    assert(n > 0 && static_cast<std::size_t>(n) < nodeCount_);
    return static_cast<std::size_t>(n) - 1;
  }
  std::size_t vsourceBranchIndex(std::size_t vsrcIdx) const {
    return nodeCount_ - 1 + vsrcIdx;
  }
  std::size_t vcvsBranchIndex(std::size_t vcvsIdx) const {
    return nodeCount_ - 1 + vsources_.size() + vcvsIdx;
  }
  std::size_t inductorBranchIndex(std::size_t indIdx) const {
    return nodeCount_ - 1 + vsources_.size() + vcvs_.size() + indIdx;
  }
  /// Total branch unknowns (vsources, vcvs, inductors — in that order).
  std::size_t branchCount() const {
    return vsources_.size() + vcvs_.size() + inductors_.size();
  }

  const std::vector<Resistor>& resistors() const { return resistors_; }
  const std::vector<Capacitor>& capacitors() const { return capacitors_; }
  const std::vector<VSource>& vsources() const { return vsources_; }
  std::vector<VSource>& vsources() { return vsources_; }
  const std::vector<ISource>& isources() const { return isources_; }
  std::vector<ISource>& isources() { return isources_; }
  const std::vector<Vcvs>& vcvs() const { return vcvs_; }
  const std::vector<Vccs>& vccs() const { return vccs_; }
  const std::vector<Diode>& diodes() const { return diodes_; }
  const std::vector<Inductor>& inductors() const { return inductors_; }
  const std::vector<MosInstance>& mosfets() const { return mosfets_; }
  /// Mutable device access for post-construction transforms (mismatch).
  std::vector<MosInstance>& mosfetsMutable() { return mosfets_; }

  /// Junction temperature for device evaluation (set from the PVT corner).
  double tempK = 300.15;

  /// Find a node id by name; returns -1 when absent.
  NodeId findNode(const std::string& name) const;

 private:
  std::size_t nodeCount_ = 1;  // ground pre-exists
  std::unordered_map<std::string, NodeId> names_;
  std::vector<Resistor> resistors_;
  std::vector<Capacitor> capacitors_;
  std::vector<VSource> vsources_;
  std::vector<ISource> isources_;
  std::vector<Vcvs> vcvs_;
  std::vector<Vccs> vccs_;
  std::vector<Diode> diodes_;
  std::vector<Inductor> inductors_;
  std::vector<MosInstance> mosfets_;
};

}  // namespace trdse::sim
