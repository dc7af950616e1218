#include "atpg/podem.hpp"

#include <algorithm>
#include <stdexcept>

namespace bistdse::atpg {

using netlist::GateType;
using netlist::Netlist;
using netlist::NodeId;

Value3 EvalGate3(GateType type, std::span<const Value3> fanins) {
  switch (type) {
    case GateType::Buf:
      return fanins[0];
    case GateType::Not:
      return Not3(fanins[0]);
    case GateType::And:
    case GateType::Nand: {
      Value3 v = Value3::One;
      for (Value3 f : fanins) v = And3(v, f);
      return type == GateType::And ? v : Not3(v);
    }
    case GateType::Or:
    case GateType::Nor: {
      Value3 v = Value3::Zero;
      for (Value3 f : fanins) v = Or3(v, f);
      return type == GateType::Or ? v : Not3(v);
    }
    case GateType::Xor:
    case GateType::Xnor: {
      Value3 v = Value3::Zero;
      for (Value3 f : fanins) v = Xor3(v, f);
      return type == GateType::Xor ? v : Not3(v);
    }
    case GateType::Input:
    case GateType::Dff:
      throw std::logic_error("EvalGate3 called on source node");
  }
  return Value3::X;
}

namespace {

constexpr std::uint32_t kNoSlot = static_cast<std::uint32_t>(-1);

}  // namespace

Podem::Podem(const Netlist& netlist, std::uint32_t backtrack_limit)
    : netlist_(netlist),
      backtrack_limit_(backtrack_limit),
      good_(netlist.NodeCount(), Value3::X),
      faulty_(netlist.NodeCount(), Value3::X),
      input_index_of_(netlist.NodeCount(), static_cast<std::uint32_t>(-1)),
      topo_index_(netlist.NodeCount(), static_cast<std::uint32_t>(-1)),
      d_slot_(netlist.NodeCount(), kNoSlot),
      level_buckets_(netlist.MaxLevel() + 1),
      in_queue_(netlist.NodeCount(), 0),
      min_level_(netlist.MaxLevel() + 1),
      visited_(netlist.NodeCount(), 0) {
  if (!netlist.IsFinalized())
    throw std::invalid_argument("netlist must be finalized");
  const auto inputs = netlist.CoreInputs();
  for (std::size_t i = 0; i < inputs.size(); ++i)
    input_index_of_[inputs[i]] = static_cast<std::uint32_t>(i);
  const auto order = netlist.TopologicalOrder();
  for (std::size_t i = 0; i < order.size(); ++i)
    topo_index_[order[i]] = static_cast<std::uint32_t>(i);
}

void Podem::SetPlanes(NodeId id, Value3 good, Value3 faulty) {
  trail_.push_back({id, good_[id], faulty_[id]});
  WritePlanes(id, good, faulty);
}

void Podem::WritePlanes(NodeId id, Value3 good, Value3 faulty) {
  good_[id] = good;
  faulty_[id] = faulty;
  const bool carries_d =
      good != Value3::X && faulty != Value3::X && good != faulty;
  const std::uint32_t slot = d_slot_[id];
  if (carries_d == (slot != kNoSlot)) return;
  const bool observed = netlist_.Structure().IsObserved(id);
  if (carries_d) {
    d_slot_[id] = static_cast<std::uint32_t>(d_nodes_.size());
    d_nodes_.push_back(id);
    observed_d_ += observed;
  } else {
    const NodeId last = d_nodes_.back();
    d_nodes_[slot] = last;
    d_slot_[last] = slot;
    d_nodes_.pop_back();
    d_slot_[id] = kNoSlot;
    observed_d_ -= observed;
  }
}

void Podem::UndoTo(std::size_t mark) {
  while (trail_.size() > mark) {
    const TrailEntry e = trail_.back();
    trail_.pop_back();
    WritePlanes(e.node, e.good, e.faulty);
  }
}

std::pair<Value3, Value3> Podem::EvaluateNode(NodeId id) {
  const auto fanins = netlist_.FaninsOf(id);
  gvals_.clear();
  fvals_.clear();
  for (std::size_t pin = 0; pin < fanins.size(); ++pin) {
    gvals_.push_back(good_[fanins[pin]]);
    Value3 fv = faulty_[fanins[pin]];
    if (id == fault_.node && static_cast<int>(pin) == fault_.fanin_index) {
      fv = FromBool(fault_.stuck_value);
    }
    fvals_.push_back(fv);
  }
  Value3 g = EvalGate3(netlist_.TypeOf(id), gvals_);
  Value3 f = EvalGate3(netlist_.TypeOf(id), fvals_);
  if (id == fault_.node && fault_.IsStem()) f = FromBool(fault_.stuck_value);
  return {g, f};
}

void Podem::Enqueue(NodeId id) {
  if (in_queue_[id]) return;
  in_queue_[id] = 1;
  const std::uint32_t lvl = netlist_.LevelOf(id);
  level_buckets_[lvl].push_back(id);
  min_level_ = std::min(min_level_, lvl);
  max_level_ = std::max(max_level_, lvl);
}

void Podem::EnqueueFanouts(NodeId id) {
  for (NodeId out : netlist_.FanoutsOf(id)) {
    if (netlist_.TypeOf(out) != GateType::Dff) Enqueue(out);
  }
}

void Podem::PropagateEvents() {
  // Fanouts sit at strictly higher levels, so each node is evaluated once,
  // after all of its changed fanins.
  for (std::uint32_t lvl = min_level_; lvl <= max_level_; ++lvl) {
    auto& bucket = level_buckets_[lvl];
    for (std::size_t i = 0; i < bucket.size(); ++i) {
      const NodeId id = bucket[i];
      in_queue_[id] = 0;
      const auto [g, f] = EvaluateNode(id);
      if (g == good_[id] && f == faulty_[id]) continue;
      SetPlanes(id, g, f);
      EnqueueFanouts(id);
    }
    bucket.clear();
  }
  min_level_ = netlist_.MaxLevel() + 1;
  max_level_ = 0;
}

void Podem::InjectFault() {
  // With every core input at X both planes are X everywhere (every gate has
  // a fanin and maps all-X fanins to X), so the fault site's own events are
  // the whole difference to a full simulation of the faulty circuit.
  const NodeId site = fault_.node;
  const GateType type = netlist_.TypeOf(site);
  if (fault_.IsStem()) {
    if (type == GateType::Input || type == GateType::Dff) {
      SetPlanes(site, good_[site], FromBool(fault_.stuck_value));
      EnqueueFanouts(site);
    } else {
      Enqueue(site);
    }
  } else if (type != GateType::Dff) {
    Enqueue(site);  // the forced pin may fix the gate's faulty output
  }
  PropagateEvents();
}

void Podem::AssignAndPropagate(std::uint32_t input_index, Value3 value) {
  assignment_[input_index] = value;
  const NodeId input = netlist_.CoreInputs()[input_index];
  SetPlanes(input, value,
            (fault_.IsStem() && input == fault_.node)
                ? FromBool(fault_.stuck_value)
                : value);
  EnqueueFanouts(input);
  PropagateEvents();
}

bool Podem::Detected() const {
  // Flop D-branch faults are observed directly at the flop's PPO slot.
  if (!fault_.IsStem() && netlist_.TypeOf(fault_.node) == GateType::Dff) {
    const Value3 g = good_[netlist_.FaninsOf(fault_.node)[0]];
    return g != Value3::X && g != FromBool(fault_.stuck_value);
  }
  return observed_d_ > 0;
}

std::optional<std::pair<NodeId, Value3>> Podem::Objective() const {
  // Flop D-branch: single objective — drive the D net to the opposite value.
  if (!fault_.IsStem() && netlist_.TypeOf(fault_.node) == GateType::Dff) {
    const NodeId driver = netlist_.FaninsOf(fault_.node)[0];
    if (good_[driver] != Value3::X) return std::nullopt;  // conflict or done
    return std::make_pair(driver, Not3(FromBool(fault_.stuck_value)));
  }

  // Activation: the fault site (stem) or faulted pin's driver must carry the
  // opposite of the stuck value in the good circuit.
  const NodeId site_net = fault_.IsStem()
                              ? fault_.node
                              : netlist_.FaninsOf(fault_.node)[fault_.fanin_index];
  const Value3 want = Not3(FromBool(fault_.stuck_value));
  if (good_[site_net] == Value3::X) return std::make_pair(site_net, want);
  if (good_[site_net] != want) return std::nullopt;  // unactivatable here

  // Propagation: pick the D-frontier gate first in topological order — a
  // gate with an undetermined plane, a D input and an X good-plane input —
  // and set its first X input to the non-controlling value. Every such gate
  // is a combinational fanout of a D node or, for a branch fault, the site
  // gate itself: its faulted pin carries D by the forced value, even though
  // the driver net's planes agree.
  NodeId gate = netlist::kInvalidNode;
  NodeId input = netlist::kInvalidNode;  // first X input of `gate`
  std::uint32_t gate_pos = static_cast<std::uint32_t>(-1);
  auto consider = [&](NodeId id) {
    if (topo_index_[id] >= gate_pos) return;
    if (good_[id] != Value3::X && faulty_[id] != Value3::X) return;
    for (NodeId f : netlist_.FaninsOf(id)) {
      if (good_[f] == Value3::X) {
        gate = id;
        input = f;
        gate_pos = topo_index_[id];
        return;
      }
    }
  };
  if (!fault_.IsStem()) consider(fault_.node);  // activation checked above
  for (NodeId d : d_nodes_) {
    for (NodeId out : netlist_.FanoutsOf(d)) {
      if (netlist_.TypeOf(out) != GateType::Dff) consider(out);
    }
  }
  if (gate == netlist::kInvalidNode) return std::nullopt;
  const int ctrl = netlist::ControllingValue(netlist_.TypeOf(gate));
  const Value3 v = ctrl < 0 ? Value3::Zero : Not3(FromBool(ctrl == 1));
  return std::make_pair(input, v);
}

std::optional<std::pair<std::uint32_t, Value3>> Podem::Backtrace(
    NodeId node, Value3 value) const {
  // Follow X-valued nets toward a core input, inverting the target value
  // through inverting gates.
  NodeId cur = node;
  Value3 v = value;
  for (;;) {
    const GateType type = netlist_.TypeOf(cur);
    if (type == GateType::Input || type == GateType::Dff) {
      const std::uint32_t idx = input_index_of_[cur];
      if (assignment_[idx] != Value3::X) return std::nullopt;  // already set
      return std::make_pair(idx, v);
    }
    const Value3 v_in = IsInverting(type) ? Not3(v) : v;
    // Choose an X-valued input. If the required value is the controlling
    // value, any single input suffices ("easiest": lowest level). Otherwise
    // all inputs must eventually get it, start with the hardest (highest
    // level) to fail fast.
    const int ctrl = netlist::ControllingValue(type);
    NodeId chosen = netlist::kInvalidNode;
    const bool want_easiest = ctrl >= 0 && v_in == FromBool(ctrl == 1);
    std::uint32_t best_level = 0;
    for (NodeId f : netlist_.FaninsOf(cur)) {
      if (good_[f] != Value3::X) continue;
      const std::uint32_t lvl = netlist_.LevelOf(f);
      if (chosen == netlist::kInvalidNode ||
          (want_easiest ? lvl < best_level : lvl > best_level)) {
        chosen = f;
        best_level = lvl;
      }
    }
    if (chosen == netlist::kInvalidNode) return std::nullopt;
    if (type == GateType::Xor || type == GateType::Xnor) {
      // XOR heuristic: pick the value that yields the desired output parity
      // assuming the remaining X inputs settle at 0; backtracking corrects
      // wrong guesses.
      Value3 parity = type == GateType::Xnor ? Value3::One : Value3::Zero;
      for (NodeId f : netlist_.FaninsOf(cur)) {
        if (f == chosen) continue;
        if (good_[f] == Value3::One) parity = Not3(parity);
      }
      v = Xor3(v, parity);
    } else {
      v = v_in;
    }
    cur = chosen;
  }
}

bool Podem::XPathExists() {
  // A fault effect can still reach an observation point if some node that
  // carries D has a forward path of nodes not yet fixed identically in both
  // planes to a core output. Plain reachability, so the DFS may start from
  // the D set in any order.
  stack_.assign(d_nodes_.begin(), d_nodes_.end());
  if (stack_.empty()) {
    const NodeId site_net =
        fault_.IsStem() ? fault_.node
                        : netlist_.FaninsOf(fault_.node)[fault_.fanin_index];
    if (good_[site_net] == Value3::X) return true;  // activation still open
    if (good_[site_net] == FromBool(fault_.stuck_value)) return false;
    // Branch fault activated at the pin but not yet visible at the site
    // gate's output: propagation is possible iff that output is still
    // undetermined in some plane.
    if (!fault_.IsStem() && netlist_.TypeOf(fault_.node) != GateType::Dff &&
        (good_[fault_.node] == Value3::X ||
         faulty_[fault_.node] == Value3::X)) {
      stack_.push_back(fault_.node);
    }
    if (stack_.empty()) return false;
  }

  if (++epoch_ == 0) {  // stamp wrap-around: clear the marks once
    std::fill(visited_.begin(), visited_.end(), 0);
    epoch_ = 1;
  }
  const netlist::StructuralInfo& structure = netlist_.Structure();
  while (!stack_.empty()) {
    const NodeId id = stack_.back();
    stack_.pop_back();
    if (structure.IsObserved(id)) return true;
    for (NodeId out : netlist_.FanoutsOf(id)) {
      if (netlist_.TypeOf(out) == GateType::Dff) continue;
      if (visited_[out] == epoch_) continue;
      visited_[out] = epoch_;
      if (good_[out] == Value3::X || faulty_[out] == Value3::X ||
          good_[out] != faulty_[out]) {
        stack_.push_back(out);
      }
    }
  }
  return false;
}

PodemResult Podem::Generate(const sim::StuckAtFault& fault,
                            const TestCube* hint) {
  if (hint && hint->bits.size() == netlist_.CoreInputs().size()) {
    PodemResult hinted = GenerateImpl(fault, hint);
    // A hinted Untestable is still a complete-search proof (hint decisions
    // are flippable); only an abort warrants a fresh unhinted attempt.
    if (hinted.outcome != PodemOutcome::Aborted) return hinted;
  }
  return GenerateImpl(fault, nullptr);
}

PodemResult Podem::GenerateImpl(const sim::StuckAtFault& fault,
                                const TestCube* hint) {
  UndoTo(0);  // back to the all-X state of the fault-free circuit
  fault_ = fault;
  assignment_.assign(netlist_.CoreInputs().size(), Value3::X);
  decisions_.clear();
  PodemResult result;

  InjectFault();
  auto decide = [&](std::uint32_t idx, Value3 value) {
    decisions_.push_back(
        {idx, value, false, static_cast<std::uint32_t>(trail_.size())});
    AssignAndPropagate(idx, value);
  };
  if (hint) {
    // Seed the hint's care bits as ordinary decisions: usually they carry
    // the region's shared activation/propagation conditions and the search
    // finishes immediately; when they conflict, normal backtracking flips
    // them like any other decision.
    for (std::size_t i = 0; i < hint->bits.size(); ++i) {
      if (Detected()) break;
      if (hint->bits[i] == Value3::X || assignment_[i] != Value3::X) continue;
      decide(static_cast<std::uint32_t>(i), hint->bits[i]);
    }
  }
  for (;;) {
    if (Detected()) {
      result.outcome = PodemOutcome::Detected;
      result.cube.bits = assignment_;
      return result;
    }

    bool dead_end = false;
    std::optional<std::pair<std::uint32_t, Value3>> next;
    if (!XPathExists()) {
      dead_end = true;
    } else if (auto obj = Objective()) {
      next = Backtrace(obj->first, obj->second);
      dead_end = !next.has_value();
    } else {
      dead_end = true;
    }

    if (!dead_end) {
      decide(next->first, next->second);
      continue;
    }

    // Backtrack: flip the most recent unflipped decision.
    for (;;) {
      if (decisions_.empty()) {
        result.outcome = PodemOutcome::Untestable;
        return result;
      }
      Decision& d = decisions_.back();
      if (!d.flipped) {
        d.flipped = true;
        d.value = Not3(d.value);
        ++result.backtracks;
        break;
      }
      assignment_[d.input_index] = Value3::X;
      decisions_.pop_back();
    }
    if (result.backtracks > backtrack_limit_) {
      result.outcome = PodemOutcome::Aborted;
      return result;
    }
    // Undo the flipped decision's implications (and those of every decision
    // above it), then imply its new value.
    const Decision& d = decisions_.back();
    UndoTo(d.trail_mark);
    AssignAndPropagate(d.input_index, d.value);
  }
}

}  // namespace bistdse::atpg
