#include "netlist/bench_io.hpp"

#include <algorithm>
#include <cctype>
#include <map>
#include <sstream>
#include <stdexcept>
#include <vector>

namespace bistdse::netlist {

namespace {

struct PendingGate {
  std::string name;
  GateType type = GateType::Buf;
  std::vector<std::string> operands;
  std::size_t line = 0;
};

[[noreturn]] void Fail(std::size_t line, const std::string& msg) {
  throw std::runtime_error(".bench line " + std::to_string(line) + ": " + msg);
}

std::string Strip(std::string_view s) {
  std::size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return std::string(s.substr(b, e - b));
}

/// Parses a .bench gate keyword (case-insensitive). Throws
/// std::invalid_argument for unknown keywords.
GateType GateTypeFromString(std::string_view s) {
  std::string up(s);
  std::transform(up.begin(), up.end(), up.begin(),
                 [](unsigned char c) { return static_cast<char>(std::toupper(c)); });
  if (up == "INPUT") return GateType::Input;
  if (up == "BUF" || up == "BUFF") return GateType::Buf;
  if (up == "NOT" || up == "INV") return GateType::Not;
  if (up == "AND") return GateType::And;
  if (up == "NAND") return GateType::Nand;
  if (up == "OR") return GateType::Or;
  if (up == "NOR") return GateType::Nor;
  if (up == "XOR") return GateType::Xor;
  if (up == "XNOR") return GateType::Xnor;
  if (up == "DFF") return GateType::Dff;
  throw std::invalid_argument("unknown gate type: " + std::string(s));
}

}  // namespace

NodeId FindByName(const Netlist& netlist, const std::string& name) {
  for (NodeId id = 0; id < netlist.NodeCount(); ++id) {
    if (netlist.GetGate(id).name == name) return id;
  }
  return kInvalidNode;
}

Netlist ParseBench(std::istream& in) {
  std::vector<std::string> inputs;
  std::vector<std::pair<std::string, std::size_t>> outputs;
  std::vector<PendingGate> pending;

  std::string raw;
  std::size_t lineno = 0;
  while (std::getline(in, raw)) {
    ++lineno;
    if (auto hash = raw.find('#'); hash != std::string::npos) raw.resize(hash);
    const std::string line = Strip(raw);
    if (line.empty()) continue;

    if (line.rfind("INPUT", 0) == 0 || line.rfind("OUTPUT", 0) == 0) {
      const bool is_input = line[0] == 'I';
      const auto open = line.find('(');
      const auto close = line.rfind(')');
      if (open == std::string::npos || close == std::string::npos ||
          close < open) {
        Fail(lineno, "malformed I/O declaration");
      }
      std::string name = Strip(line.substr(open + 1, close - open - 1));
      if (name.empty()) Fail(lineno, "empty net name");
      if (is_input) {
        inputs.push_back(std::move(name));
      } else {
        outputs.emplace_back(std::move(name), lineno);
      }
      continue;
    }

    const auto eq = line.find('=');
    if (eq == std::string::npos) Fail(lineno, "expected '='");
    PendingGate g;
    g.name = Strip(line.substr(0, eq));
    g.line = lineno;
    const std::string rhs = Strip(line.substr(eq + 1));
    const auto open = rhs.find('(');
    const auto close = rhs.rfind(')');
    if (open == std::string::npos || close == std::string::npos || close < open)
      Fail(lineno, "malformed gate expression");
    try {
      g.type = GateTypeFromString(Strip(rhs.substr(0, open)));
    } catch (const std::invalid_argument& e) {
      Fail(lineno, e.what());
    }
    std::stringstream ss(rhs.substr(open + 1, close - open - 1));
    std::string op;
    while (std::getline(ss, op, ',')) {
      op = Strip(op);
      if (op.empty()) Fail(lineno, "empty operand");
      g.operands.push_back(std::move(op));
    }
    if (g.name.empty()) Fail(lineno, "empty gate name");
    if (g.type == GateType::Dff && g.operands.size() != 1)
      Fail(lineno, "DFF requires exactly 1 operand");
    pending.push_back(std::move(g));
  }

  Netlist nl;
  std::map<std::string, NodeId> defined;
  for (const std::string& name : inputs) {
    if (defined.count(name)) throw std::runtime_error("duplicate net: " + name);
    defined[name] = nl.AddInput(name);
  }
  std::map<std::string, const PendingGate*> by_name;
  for (const PendingGate& g : pending) {
    if (defined.count(g.name) || by_name.count(g.name))
      Fail(g.line, "duplicate net: " + g.name);
    by_name[g.name] = &g;
  }

  // Flops usually precede their fanin cone in .bench files, and feedback
  // through flops is legal. Materialize every flop up-front with a
  // placeholder D connection, patch after the combinational gates exist.
  std::vector<std::pair<NodeId, const PendingGate*>> flop_patches;
  for (const PendingGate& g : pending) {
    if (g.type != GateType::Dff) continue;
    // Placeholder fanin: any existing node; node 0 exists whenever the file
    // has at least one input or earlier gate. A flop whose netlist is
    // otherwise empty would be degenerate anyway.
    if (nl.NodeCount() == 0) Fail(g.line, "flop with no possible fanin");
    const NodeId id = nl.AddFlop(0, g.name);
    defined[g.name] = id;
    flop_patches.emplace_back(id, &g);
  }

  // Kahn's algorithm over combinational gates; flop outputs count as defined.
  std::map<std::string, std::vector<const PendingGate*>> waiters;
  std::map<const PendingGate*, std::size_t> missing;
  std::vector<const PendingGate*> ready;
  for (const PendingGate& g : pending) {
    if (g.type == GateType::Dff) continue;
    std::size_t need = 0;
    for (const std::string& op : g.operands) {
      if (defined.count(op)) continue;
      if (!by_name.count(op)) Fail(g.line, "undefined net: " + op);
      ++need;
      waiters[op].push_back(&g);
    }
    missing[&g] = need;
    if (need == 0) ready.push_back(&g);
  }

  std::size_t processed = 0;
  while (processed < ready.size()) {
    const PendingGate* g = ready[processed++];
    std::vector<NodeId> fanins;
    fanins.reserve(g->operands.size());
    for (const std::string& op : g->operands) fanins.push_back(defined.at(op));
    NodeId id;
    try {
      id = nl.AddGate(g->type, fanins, g->name);
    } catch (const std::invalid_argument& e) {
      Fail(g->line, e.what());
    }
    defined[g->name] = id;
    if (auto it = waiters.find(g->name); it != waiters.end()) {
      for (const PendingGate* w : it->second) {
        if (--missing[w] == 0) ready.push_back(w);
      }
    }
  }
  if (processed != missing.size()) {
    throw std::runtime_error(".bench: combinational cycle detected");
  }

  for (auto& [flop, g] : flop_patches) {
    auto it = defined.find(g->operands[0]);
    if (it == defined.end()) Fail(g->line, "undefined net: " + g->operands[0]);
    nl.RebindFlopInput(flop, it->second);
  }

  for (const auto& [name, line] : outputs) {
    auto it = defined.find(name);
    if (it == defined.end())
      Fail(line, "OUTPUT references undefined net: " + name);
    nl.MarkOutput(it->second);
  }

  nl.Finalize();
  return nl;
}

Netlist ParseBenchString(const std::string& text) {
  std::istringstream ss(text);
  return ParseBench(ss);
}

void WriteBench(const Netlist& netlist, std::ostream& out) {
  auto name_of = [&](NodeId id) {
    std::string n = netlist.GetGate(id).name;
    if (n.empty()) {
      n.push_back('n');
      n += std::to_string(id);
    }
    return n;
  };
  for (NodeId id : netlist.PrimaryInputs())
    out << "INPUT(" << name_of(id) << ")\n";
  for (NodeId id : netlist.PrimaryOutputs())
    out << "OUTPUT(" << name_of(id) << ")\n";
  for (NodeId id = 0; id < netlist.NodeCount(); ++id) {
    const Gate& g = netlist.GetGate(id);
    if (g.type == GateType::Input) continue;
    out << name_of(id) << " = " << ToString(g.type) << "(";
    for (std::size_t i = 0; i < g.fanins.size(); ++i) {
      if (i) out << ", ";
      out << name_of(g.fanins[i]);
    }
    out << ")\n";
  }
}

std::string WriteBenchString(const Netlist& netlist) {
  std::ostringstream ss;
  WriteBench(netlist, ss);
  return ss.str();
}

}  // namespace bistdse::netlist
