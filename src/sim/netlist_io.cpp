#include "sim/netlist_io.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <sstream>

namespace trdse::sim {

namespace {

std::string toLower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return s;
}

std::vector<std::string> tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream is(line);
  std::string t;
  while (is >> t) tokens.push_back(t);
  return tokens;
}

/// "w=2u" -> ("w", 2e-6); returns empty key when not key=value shaped.
std::pair<std::string, std::string> splitKeyValue(const std::string& token) {
  const auto eq = token.find('=');
  if (eq == std::string::npos || eq == 0 || eq + 1 >= token.size()) return {"", ""};
  return {toLower(token.substr(0, eq)), token.substr(eq + 1)};
}

}  // namespace

std::optional<double> parseSpiceValue(const std::string& token) {
  if (token.empty()) return std::nullopt;
  std::size_t pos = 0;
  double base = 0.0;
  try {
    base = std::stod(token, &pos);
  } catch (...) {
    return std::nullopt;
  }
  std::string suffix = toLower(token.substr(pos));
  // Strip a trailing unit word ("2.2kohm", "10pf").
  static const char* kUnits[] = {"ohm", "f", "h", "v", "a", "s", "hz"};
  double scale = 1.0;
  if (suffix.rfind("meg", 0) == 0) {
    scale = 1e6;
    suffix = suffix.substr(3);
  } else if (!suffix.empty()) {
    switch (suffix.front()) {
      case 't':
        scale = 1e12;
        suffix = suffix.substr(1);
        break;
      case 'g':
        scale = 1e9;
        suffix = suffix.substr(1);
        break;
      case 'k':
        scale = 1e3;
        suffix = suffix.substr(1);
        break;
      case 'm':
        scale = 1e-3;
        suffix = suffix.substr(1);
        break;
      case 'u':
        scale = 1e-6;
        suffix = suffix.substr(1);
        break;
      case 'n':
        scale = 1e-9;
        suffix = suffix.substr(1);
        break;
      case 'p':
        scale = 1e-12;
        suffix = suffix.substr(1);
        break;
      case 'f':
        // 'f' alone could be femto or the farad unit; treat as femto only
        // when it is not a bare unit word.
        scale = 1e-15;
        suffix = suffix.substr(1);
        break;
      default:
        break;
    }
  }
  if (!suffix.empty()) {
    const bool isUnit = std::any_of(std::begin(kUnits), std::end(kUnits),
                                    [&](const char* u) { return suffix == u; });
    if (!isUnit) return std::nullopt;
  }
  // "nan", "inf" and an overflowing suffix ("1e308k") would otherwise put
  // non-finite stamps into the DC and AC engines.
  const double value = base * scale;
  if (!std::isfinite(value)) return std::nullopt;
  return value;
}

ParseResult parseNetlist(const std::string& text, const ProcessCard& card,
                         const PvtCorner& corner) {
  ParseResult result;
  Netlist nl;
  nl.tempK = corner.tempK();
  const MosParams nmos = applyPvt(card.nmos, MosType::kNmos, corner, card.tnomK);
  const MosParams pmos = applyPvt(card.pmos, MosType::kPmos, corner, card.tnomK);

  auto fail = [&](std::size_t line, std::string msg) {
    result.error = {line, std::move(msg)};
    return result;
  };

  std::istringstream is(text);
  std::string line;
  std::size_t lineNo = 0;
  while (std::getline(is, line)) {
    ++lineNo;
    const auto hash = line.find_first_of("*;");
    if (hash != std::string::npos) line = line.substr(0, hash);
    const auto tokens = tokenize(line);
    if (tokens.empty()) continue;
    const std::string head = toLower(tokens[0]);

    if (head == ".end") break;
    if (head == ".temp") {
      if (tokens.size() < 2) return fail(lineNo, ".temp needs a value");
      const auto t = parseSpiceValue(tokens[1]);
      if (!t) return fail(lineNo, "bad .temp value");
      nl.tempK = *t + 273.15;
      continue;
    }
    if (head.front() == '.') continue;  // unknown directives are ignored

    auto node = [&](const std::string& name) { return nl.node(name); };
    auto needValue = [&](std::size_t idx) -> std::optional<double> {
      if (idx >= tokens.size()) return std::nullopt;
      return parseSpiceValue(tokens[idx]);
    };

    switch (head.front()) {
      case 'r': {
        const auto v = needValue(3);
        if (tokens.size() < 4 || !v || *v <= 0.0)
          return fail(lineNo, "R card: R<name> n+ n- value");
        nl.addResistor(node(tokens[1]), node(tokens[2]), *v);
        break;
      }
      case 'c': {
        const auto v = needValue(3);
        if (tokens.size() < 4 || !v || *v < 0.0)
          return fail(lineNo, "C card: C<name> n+ n- value");
        nl.addCapacitor(node(tokens[1]), node(tokens[2]), *v);
        break;
      }
      case 'l': {
        const auto v = needValue(3);
        if (tokens.size() < 4 || !v || *v <= 0.0)
          return fail(lineNo, "L card: L<name> n+ n- value");
        nl.addInductor(node(tokens[1]), node(tokens[2]), *v);
        break;
      }
      case 'v': {
        const auto v = needValue(3);
        if (tokens.size() < 4 || !v) return fail(lineNo, "V card: V<name> n+ n- dc [ac mag]");
        double ac = 0.0;
        if (tokens.size() >= 6 && toLower(tokens[4]) == "ac") {
          const auto a = parseSpiceValue(tokens[5]);
          if (!a) return fail(lineNo, "bad ac magnitude");
          ac = *a;
        }
        nl.addVSource(node(tokens[1]), node(tokens[2]), *v, ac);
        break;
      }
      case 'i': {
        const auto v = needValue(3);
        if (tokens.size() < 4 || !v) return fail(lineNo, "I card: I<name> n+ n- dc [ac mag]");
        double ac = 0.0;
        if (tokens.size() >= 6 && toLower(tokens[4]) == "ac") {
          const auto a = parseSpiceValue(tokens[5]);
          if (!a) return fail(lineNo, "bad ac magnitude");
          ac = *a;
        }
        nl.addISource(node(tokens[1]), node(tokens[2]), *v, ac);
        break;
      }
      case 'e': {
        const auto v = needValue(5);
        if (tokens.size() < 6 || !v) return fail(lineNo, "E card: E<name> p n cp cn gain");
        nl.addVcvs(node(tokens[1]), node(tokens[2]), node(tokens[3]),
                   node(tokens[4]), *v);
        break;
      }
      case 'g': {
        const auto v = needValue(5);
        if (tokens.size() < 6 || !v) return fail(lineNo, "G card: G<name> p n cp cn gm");
        nl.addVccs(node(tokens[1]), node(tokens[2]), node(tokens[3]),
                   node(tokens[4]), *v);
        break;
      }
      case 'd': {
        if (tokens.size() < 3) return fail(lineNo, "D card: D<name> a k [is=val]");
        double isat = 1e-14;
        for (std::size_t i = 3; i < tokens.size(); ++i) {
          const auto [key, val] = splitKeyValue(tokens[i]);
          if (key == "is") {
            const auto v = parseSpiceValue(val);
            if (!v || *v <= 0.0) return fail(lineNo, "bad is= value");
            isat = *v;
          }
        }
        nl.addDiode(node(tokens[1]), node(tokens[2]), isat);
        break;
      }
      case 'm': {
        if (tokens.size() < 6)
          return fail(lineNo, "M card: M<name> d g s b <nmos|pmos> w=.. l=..");
        const std::string type = toLower(tokens[5]);
        if (type != "nmos" && type != "pmos")
          return fail(lineNo, "MOSFET type must be nmos or pmos");
        MosGeometry geom;
        geom.w = 0.0;
        geom.l = 0.0;
        for (std::size_t i = 6; i < tokens.size(); ++i) {
          const auto [key, val] = splitKeyValue(tokens[i]);
          const auto v = parseSpiceValue(val);
          if (key.empty() || !v) return fail(lineNo, "bad MOSFET parameter: " + tokens[i]);
          if (key == "w") geom.w = *v;
          if (key == "l") geom.l = *v;
          if (key == "m") geom.m = *v;
        }
        if (geom.w <= 0.0 || geom.l <= 0.0)
          return fail(lineNo, "MOSFET needs positive w= and l=");
        nl.addMosfet(tokens[0], node(tokens[1]), node(tokens[2]), node(tokens[3]),
                     node(tokens[4]), type == "nmos" ? MosType::kNmos : MosType::kPmos,
                     geom, type == "nmos" ? nmos : pmos);
        break;
      }
      default:
        return fail(lineNo, "unknown card: " + tokens[0]);
    }
  }
  result.netlist = std::move(nl);
  return result;
}

std::string writeNetlist(const Netlist& netlist) {
  std::ostringstream os;
  os << "* written by trdse::sim::writeNetlist\n";
  std::size_t n = 0;
  for (const auto& r : netlist.resistors())
    os << "R" << n++ << " " << r.a << " " << r.b << " " << r.ohms << "\n";
  n = 0;
  for (const auto& c : netlist.capacitors())
    os << "C" << n++ << " " << c.a << " " << c.b << " " << c.farads << "\n";
  n = 0;
  for (const auto& l : netlist.inductors())
    os << "L" << n++ << " " << l.a << " " << l.b << " " << l.henry << "\n";
  n = 0;
  for (const auto& v : netlist.vsources()) {
    os << "V" << n++ << " " << v.p << " " << v.n << " " << v.vdc;
    if (v.vac != 0.0) os << " ac " << v.vac;
    os << "\n";
  }
  n = 0;
  for (const auto& i : netlist.isources()) {
    os << "I" << n++ << " " << i.p << " " << i.n << " " << i.idc;
    if (i.iac != 0.0) os << " ac " << i.iac;
    os << "\n";
  }
  n = 0;
  for (const auto& e : netlist.vcvs())
    os << "E" << n++ << " " << e.p << " " << e.n << " " << e.cp << " " << e.cn
       << " " << e.gain << "\n";
  n = 0;
  for (const auto& g : netlist.vccs())
    os << "G" << n++ << " " << g.p << " " << g.n << " " << g.cp << " " << g.cn
       << " " << g.gm << "\n";
  n = 0;
  for (const auto& d : netlist.diodes())
    os << "D" << n++ << " " << d.a << " " << d.k << " is=" << d.isat << "\n";
  for (const auto& m : netlist.mosfets())
    os << m.name << " " << m.d << " " << m.g << " " << m.s << " " << m.b << " "
       << (m.type == MosType::kNmos ? "nmos" : "pmos") << " w=" << m.geom.w
       << " l=" << m.geom.l << " m=" << m.geom.m << "\n";
  os << ".end\n";
  return os.str();
}

}  // namespace trdse::sim
