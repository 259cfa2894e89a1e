// SPICE-style text netlist parsing and writing.
//
// The framework is a "SPICE decorator" (paper IV-F): designers keep their
// textual netlists. This reader accepts the common card subset the solvers
// support; the writer round-trips a Netlist back to text for inspection and
// for hand-off to an external simulator.
//
// Grammar (one card per line, '*' comments, case-insensitive prefixes):
//   R<name> n+ n- value
//   C<name> n+ n- value
//   L<name> n+ n- value
//   V<name> n+ n- dc [ac <mag>]
//   I<name> n+ n- dc [ac <mag>]
//   E<name> p n cp cn gain
//   G<name> p n cp cn gm
//   D<name> a k [is=<val>]
//   M<name> d g s b <nmos|pmos> w=<val> l=<val> [m=<val>]
//   .temp <celsius>
//   .end
// Values accept SPICE suffixes: f p n u m k meg g t.
#pragma once

#include <optional>
#include <string>

#include "sim/netlist.hpp"

namespace trdse::sim {

struct ParseError {
  std::size_t line = 0;
  std::string message;
};

struct ParseResult {
  std::optional<Netlist> netlist;  ///< engaged on success
  ParseError error;                ///< valid when !netlist
};

/// Parse a netlist from text. MOSFET cards take their parameters from
/// `card` (PVT-adjusted by `corner` exactly as the circuit builders do).
ParseResult parseNetlist(const std::string& text, const ProcessCard& card,
                         const PvtCorner& corner);

/// Parse a numeric literal with SPICE magnitude suffixes ("2.2k", "10u",
/// "1meg"); nullopt on malformed input and on values that are not finite.
std::optional<double> parseSpiceValue(const std::string& token);

/// Render a netlist back to card text (device parameters, not process cards).
std::string writeNetlist(const Netlist& netlist);

}  // namespace trdse::sim
