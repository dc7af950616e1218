#include "netlist/library.hpp"

#include <string>

namespace bistdse::netlist {

namespace {

/// Full adder over (x, y, cin); returns {sum, cout}.
std::pair<NodeId, NodeId> FullAdder(Netlist& nl, NodeId x, NodeId y,
                                    NodeId cin) {
  const NodeId axb = nl.AddGate(GateType::Xor, {x, y});
  const NodeId sum = nl.AddGate(GateType::Xor, {axb, cin});
  const NodeId c1 = nl.AddGate(GateType::And, {x, y});
  const NodeId c2 = nl.AddGate(GateType::And, {axb, cin});
  const NodeId cout = nl.AddGate(GateType::Or, {c1, c2});
  return {sum, cout};
}

/// Input name `prefix` followed by the decimal index.
std::string PortName(char prefix, std::uint32_t i) {
  std::string name(1, prefix);
  name += std::to_string(i);
  return name;
}

}  // namespace

BlockPorts BuildRippleCarryAdder(Netlist& nl, std::uint32_t bits) {
  BlockPorts ports;
  for (std::uint32_t i = 0; i < bits; ++i)
    ports.a.push_back(nl.AddInput(PortName('a', i)));
  for (std::uint32_t i = 0; i < bits; ++i)
    ports.b.push_back(nl.AddInput(PortName('b', i)));
  ports.carry_in = nl.AddInput("cin");

  NodeId carry = ports.carry_in;
  for (std::uint32_t i = 0; i < bits; ++i) {
    auto [sum, cout] = FullAdder(nl, ports.a[i], ports.b[i], carry);
    ports.out.push_back(sum);
    nl.MarkOutput(sum);
    carry = cout;
  }
  ports.carry_out = carry;
  nl.MarkOutput(carry);
  return ports;
}

BlockPorts BuildArrayMultiplier(Netlist& nl, std::uint32_t bits) {
  BlockPorts ports;
  for (std::uint32_t i = 0; i < bits; ++i)
    ports.a.push_back(nl.AddInput(PortName('a', i)));
  for (std::uint32_t i = 0; i < bits; ++i)
    ports.b.push_back(nl.AddInput(PortName('b', i)));

  // Partial products pp[i][j] = a[j] & b[i], accumulated row by row with
  // ripple adders (classic array multiplier).
  std::vector<NodeId> acc;  // running sum, LSB first
  for (std::uint32_t i = 0; i < bits; ++i) {
    std::vector<NodeId> row;
    for (std::uint32_t j = 0; j < bits; ++j) {
      row.push_back(nl.AddGate(GateType::And, {ports.a[j], ports.b[i]}));
    }
    if (i == 0) {
      acc = row;
      continue;
    }
    // Add `row` shifted left by i onto acc: bits below i are final already.
    NodeId carry = kInvalidNode;
    std::vector<NodeId> next_acc(acc.begin(), acc.begin() + i);
    for (std::uint32_t j = 0; j < bits; ++j) {
      const NodeId acc_bit =
          (i + j) < acc.size() ? acc[i + j] : kInvalidNode;
      if (acc_bit == kInvalidNode) {
        // No accumulated bit here: half-add row bit with carry.
        if (carry == kInvalidNode) {
          next_acc.push_back(row[j]);
        } else {
          const NodeId s = nl.AddGate(GateType::Xor, {row[j], carry});
          carry = nl.AddGate(GateType::And, {row[j], carry});
          next_acc.push_back(s);
        }
        continue;
      }
      if (carry == kInvalidNode) {
        const NodeId s = nl.AddGate(GateType::Xor, {acc_bit, row[j]});
        carry = nl.AddGate(GateType::And, {acc_bit, row[j]});
        next_acc.push_back(s);
      } else {
        auto [s, c] = FullAdder(nl, acc_bit, row[j], carry);
        next_acc.push_back(s);
        carry = c;
      }
    }
    if (carry != kInvalidNode) next_acc.push_back(carry);
    acc = std::move(next_acc);
  }

  // Pad to 2n bits with constant-0? Array multiplier naturally yields up to
  // 2n bits; acc size is exactly 2n for bits >= 1 except the top carry may
  // be absent for bits == 1.
  ports.out = acc;
  for (NodeId bit : ports.out) nl.MarkOutput(bit);
  return ports;
}

BlockPorts BuildEqualityComparator(Netlist& nl, std::uint32_t bits) {
  BlockPorts ports;
  for (std::uint32_t i = 0; i < bits; ++i)
    ports.a.push_back(nl.AddInput(PortName('a', i)));
  for (std::uint32_t i = 0; i < bits; ++i)
    ports.b.push_back(nl.AddInput(PortName('b', i)));
  std::vector<NodeId> eq;
  for (std::uint32_t i = 0; i < bits; ++i) {
    eq.push_back(nl.AddGate(GateType::Xnor, {ports.a[i], ports.b[i]}));
  }
  while (eq.size() > 1) {
    std::vector<NodeId> next;
    for (std::size_t i = 0; i + 1 < eq.size(); i += 2) {
      next.push_back(nl.AddGate(GateType::And, {eq[i], eq[i + 1]}));
    }
    if (eq.size() % 2) next.push_back(eq.back());
    eq = std::move(next);
  }
  ports.out = {eq[0]};
  nl.MarkOutput(eq[0]);
  return ports;
}

BlockPorts BuildParityTree(Netlist& nl, std::uint32_t bits) {
  BlockPorts ports;
  for (std::uint32_t i = 0; i < bits; ++i)
    ports.a.push_back(nl.AddInput(PortName('x', i)));
  std::vector<NodeId> layer = ports.a;
  while (layer.size() > 1) {
    std::vector<NodeId> next;
    for (std::size_t i = 0; i + 1 < layer.size(); i += 2) {
      next.push_back(nl.AddGate(GateType::Xor, {layer[i], layer[i + 1]}));
    }
    if (layer.size() % 2) next.push_back(layer.back());
    layer = std::move(next);
  }
  ports.out = {layer[0]};
  nl.MarkOutput(layer[0]);
  return ports;
}

BlockPorts BuildMuxTree(Netlist& nl, std::uint32_t sel_bits) {
  BlockPorts ports;
  const std::uint32_t n = 1u << sel_bits;
  for (std::uint32_t i = 0; i < n; ++i)
    ports.a.push_back(nl.AddInput(PortName('d', i)));
  for (std::uint32_t i = 0; i < sel_bits; ++i)
    ports.b.push_back(nl.AddInput(PortName('s', i)));

  std::vector<NodeId> layer = ports.a;
  for (std::uint32_t level = 0; level < sel_bits; ++level) {
    const NodeId sel = ports.b[level];
    const NodeId nsel = nl.AddGate(GateType::Not, {sel});
    std::vector<NodeId> next;
    for (std::size_t i = 0; i + 1 < layer.size(); i += 2) {
      const NodeId p0 = nl.AddGate(GateType::And, {layer[i], nsel});
      const NodeId p1 = nl.AddGate(GateType::And, {layer[i + 1], sel});
      next.push_back(nl.AddGate(GateType::Or, {p0, p1}));
    }
    layer = std::move(next);
  }
  ports.out = {layer[0]};
  nl.MarkOutput(layer[0]);
  return ports;
}

}  // namespace bistdse::netlist
