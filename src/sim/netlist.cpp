#include "sim/netlist.hpp"

namespace trdse::sim {

NodeId Netlist::node(const std::string& name) {
  if (name == "0" || name == "gnd" || name == "GND") return kGround;
  auto it = names_.find(name);
  if (it != names_.end()) return it->second;
  const NodeId id = static_cast<NodeId>(nodeCount_++);
  names_.emplace(name, id);
  return id;
}

NodeId Netlist::findNode(const std::string& name) const {
  if (name == "0" || name == "gnd" || name == "GND") return kGround;
  auto it = names_.find(name);
  return it == names_.end() ? -1 : it->second;
}

void Netlist::addResistor(NodeId a, NodeId b, double ohms) {
  assert(ohms > 0.0);
  resistors_.push_back({a, b, ohms});
}

void Netlist::addCapacitor(NodeId a, NodeId b, double farads) {
  assert(farads >= 0.0);
  capacitors_.push_back({a, b, farads});
}

std::size_t Netlist::addVSource(NodeId p, NodeId n, double vdc, double vac) {
  vsources_.push_back({p, n, vdc, vac});
  return vsources_.size() - 1;
}

void Netlist::addISource(NodeId p, NodeId n, double idc, double iac) {
  isources_.push_back({p, n, idc, iac});
}

std::size_t Netlist::addVcvs(NodeId p, NodeId n, NodeId cp, NodeId cn, double gain) {
  vcvs_.push_back({p, n, cp, cn, gain});
  return vcvs_.size() - 1;
}

void Netlist::addVccs(NodeId p, NodeId n, NodeId cp, NodeId cn, double gm) {
  vccs_.push_back({p, n, cp, cn, gm});
}

void Netlist::addDiode(NodeId a, NodeId k, double isat, double emission) {
  assert(isat > 0.0 && emission > 0.0);
  diodes_.push_back({a, k, isat, emission});
}

std::size_t Netlist::addInductor(NodeId a, NodeId b, double henry) {
  assert(henry > 0.0);
  inductors_.push_back({a, b, henry});
  return inductors_.size() - 1;
}

std::size_t Netlist::addMosfet(std::string name, NodeId d, NodeId g, NodeId s,
                               NodeId b, MosType type, const MosGeometry& geom,
                               const MosParams& params) {
  MosInstance inst;
  inst.name = std::move(name);
  inst.d = d;
  inst.g = g;
  inst.s = s;
  inst.b = b;
  inst.type = type;
  inst.geom = geom;
  inst.params = params;
  mosfets_.push_back(std::move(inst));
  return mosfets_.size() - 1;
}

std::size_t Netlist::unknownCount() const {
  return (nodeCount_ - 1) + branchCount();
}

}  // namespace trdse::sim
