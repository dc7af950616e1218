// Specification oracle for PODEM: a reference search written out plainly
// against which Podem::Generate must agree on every outcome, backtrack count
// and cube bit.
//
// The reference keeps the generator's decision rules — objective, backtrace,
// hint seeding, flip order, backtrack limit and one unhinted retry after a
// hinted abort — but recomputes both planes from the current assignment in
// one topological pass before every step, and finds detection, the
// D-frontier gate and the X-path by scanning the whole netlist. Podem does
// the same search incrementally (trail undo, events from the fault site, a
// maintained D set), so any drift in its state or in its frontier pick shows
// up here as a different decision.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "atpg/podem.hpp"
#include "casestudy/casestudy.hpp"
#include "netlist/bench_io.hpp"
#include "netlist/random_circuit.hpp"
#include "sim/fault.hpp"
#include "test_helpers.hpp"

namespace bistdse::atpg {
namespace {

using netlist::GateType;
using netlist::Netlist;
using netlist::NodeId;
using sim::StuckAtFault;

class ReferencePodem {
 public:
  ReferencePodem(const Netlist& nl, std::uint32_t backtrack_limit)
      : nl_(nl),
        limit_(backtrack_limit),
        input_of_(nl.NodeCount(), 0),
        is_output_(nl.NodeCount(), false) {
    for (std::size_t i = 0; i < nl.CoreInputs().size(); ++i)
      input_of_[nl.CoreInputs()[i]] = static_cast<std::uint32_t>(i);
    for (NodeId id : nl.CoreOutputs()) is_output_[id] = true;
  }

  PodemResult Generate(const StuckAtFault& fault, const TestCube* hint) {
    if (hint && hint->bits.size() == nl_.CoreInputs().size()) {
      PodemResult hinted = Search(fault, hint);
      if (hinted.outcome != PodemOutcome::Aborted) return hinted;
    }
    return Search(fault, nullptr);
  }

 private:
  struct Decision {
    std::uint32_t input;
    Value3 value;
    bool flipped;
  };

  Value3 Stuck() const { return FromBool(fault_.stuck_value); }

  bool IsFlopDBranch() const {
    return !fault_.IsStem() && nl_.TypeOf(fault_.node) == GateType::Dff;
  }

  NodeId SiteNet() const {
    return fault_.IsStem() ? fault_.node
                           : nl_.FaninsOf(fault_.node)[fault_.fanin_index];
  }

  bool CarriesD(NodeId id) const {
    return good_[id] != Value3::X && faulty_[id] != Value3::X &&
           good_[id] != faulty_[id];
  }

  // Both planes of the whole netlist from the assignment, in one pass.
  void Simulate() {
    good_.assign(nl_.NodeCount(), Value3::X);
    faulty_.assign(nl_.NodeCount(), Value3::X);
    const auto inputs = nl_.CoreInputs();
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      good_[inputs[i]] = assignment_[i];
      faulty_[inputs[i]] = assignment_[i];
    }
    if (fault_.IsStem()) faulty_[fault_.node] = Stuck();
    std::vector<Value3> g, f;
    for (NodeId id : nl_.TopologicalOrder()) {
      const auto fanins = nl_.FaninsOf(id);
      g.clear();
      f.clear();
      for (std::size_t pin = 0; pin < fanins.size(); ++pin) {
        g.push_back(good_[fanins[pin]]);
        const bool forced =
            id == fault_.node && static_cast<int>(pin) == fault_.fanin_index;
        f.push_back(forced ? Stuck() : faulty_[fanins[pin]]);
      }
      good_[id] = EvalGate3(nl_.TypeOf(id), g);
      faulty_[id] = (id == fault_.node && fault_.IsStem())
                        ? Stuck()
                        : EvalGate3(nl_.TypeOf(id), f);
    }
  }

  bool Detected() const {
    if (IsFlopDBranch()) {
      const Value3 g = good_[nl_.FaninsOf(fault_.node)[0]];
      return g != Value3::X && g != Stuck();
    }
    for (NodeId id : nl_.CoreOutputs()) {
      if (CarriesD(id)) return true;
    }
    return false;
  }

  std::optional<std::pair<NodeId, Value3>> Objective() const {
    if (IsFlopDBranch()) {
      const NodeId driver = nl_.FaninsOf(fault_.node)[0];
      if (good_[driver] != Value3::X) return std::nullopt;
      return std::make_pair(driver, Not3(Stuck()));
    }
    const NodeId site = SiteNet();
    if (good_[site] == Value3::X) return std::make_pair(site, Not3(Stuck()));
    if (good_[site] != Not3(Stuck())) return std::nullopt;
    // The first gate in topological order with an undetermined plane, a D
    // input (the branch site counts: its pin carries D) and an X input.
    for (NodeId id : nl_.TopologicalOrder()) {
      if (good_[id] != Value3::X && faulty_[id] != Value3::X) continue;
      bool d_input = !fault_.IsStem() && id == fault_.node;
      for (NodeId f : nl_.FaninsOf(id)) d_input = d_input || CarriesD(f);
      if (!d_input) continue;
      for (NodeId f : nl_.FaninsOf(id)) {
        if (good_[f] != Value3::X) continue;
        const int ctrl = netlist::ControllingValue(nl_.TypeOf(id));
        return std::make_pair(
            f, ctrl < 0 ? Value3::Zero : Not3(FromBool(ctrl == 1)));
      }
    }
    return std::nullopt;
  }

  std::optional<std::pair<std::uint32_t, Value3>> Backtrace(NodeId node,
                                                            Value3 v) const {
    for (;;) {
      const GateType type = nl_.TypeOf(node);
      if (type == GateType::Input || type == GateType::Dff) {
        const std::uint32_t idx = input_of_[node];
        if (assignment_[idx] != Value3::X) return std::nullopt;
        return std::make_pair(idx, v);
      }
      const Value3 v_in = netlist::IsInverting(type) ? Not3(v) : v;
      // Controlling target: the first lowest-level X input; otherwise the
      // first highest-level one.
      const int ctrl = netlist::ControllingValue(type);
      const bool easiest = ctrl >= 0 && v_in == FromBool(ctrl == 1);
      NodeId chosen = netlist::kInvalidNode;
      for (NodeId f : nl_.FaninsOf(node)) {
        if (good_[f] != Value3::X) continue;
        if (chosen == netlist::kInvalidNode ||
            (easiest ? nl_.LevelOf(f) < nl_.LevelOf(chosen)
                     : nl_.LevelOf(f) > nl_.LevelOf(chosen))) {
          chosen = f;
        }
      }
      if (chosen == netlist::kInvalidNode) return std::nullopt;
      if (type == GateType::Xor || type == GateType::Xnor) {
        // Parity of the known-one inputs, other X inputs taken as 0.
        Value3 parity = type == GateType::Xnor ? Value3::One : Value3::Zero;
        for (NodeId f : nl_.FaninsOf(node)) {
          if (f != chosen && good_[f] == Value3::One) parity = Not3(parity);
        }
        v = Xor3(v, parity);
      } else {
        v = v_in;
      }
      node = chosen;
    }
  }

  bool XPathExists() const {
    std::vector<NodeId> stack;
    for (NodeId id = 0; id < nl_.NodeCount(); ++id) {
      if (CarriesD(id)) stack.push_back(id);
    }
    if (stack.empty()) {
      const NodeId site = SiteNet();
      if (good_[site] == Value3::X) return true;
      if (good_[site] == Stuck()) return false;
      if (!fault_.IsStem() && !IsFlopDBranch() &&
          (good_[fault_.node] == Value3::X ||
           faulty_[fault_.node] == Value3::X)) {
        stack.push_back(fault_.node);
      }
    }
    std::vector<bool> seen(nl_.NodeCount(), false);
    while (!stack.empty()) {
      const NodeId id = stack.back();
      stack.pop_back();
      if (is_output_[id]) return true;
      for (NodeId out : nl_.FanoutsOf(id)) {
        if (nl_.TypeOf(out) == GateType::Dff || seen[out]) continue;
        seen[out] = true;
        const bool fixed = good_[out] != Value3::X &&
                           faulty_[out] != Value3::X &&
                           good_[out] == faulty_[out];
        if (!fixed) stack.push_back(out);
      }
    }
    return false;
  }

  void Decide(std::uint32_t input, Value3 value) {
    decisions_.push_back({input, value, false});
    assignment_[input] = value;
    Simulate();
  }

  PodemResult Search(const StuckAtFault& fault, const TestCube* hint) {
    fault_ = fault;
    assignment_.assign(nl_.CoreInputs().size(), Value3::X);
    decisions_.clear();
    Simulate();
    PodemResult result;
    if (hint) {
      for (std::size_t i = 0; i < hint->bits.size(); ++i) {
        if (Detected()) break;
        if (hint->bits[i] == Value3::X || assignment_[i] != Value3::X) continue;
        Decide(static_cast<std::uint32_t>(i), hint->bits[i]);
      }
    }
    for (;;) {
      if (Detected()) {
        result.outcome = PodemOutcome::Detected;
        result.cube.bits = assignment_;
        return result;
      }
      std::optional<std::pair<std::uint32_t, Value3>> next;
      if (XPathExists()) {
        const auto obj = Objective();
        if (obj) next = Backtrace(obj->first, obj->second);
      }
      if (next) {
        Decide(next->first, next->second);
        continue;
      }
      // Flip the most recent unflipped decision, dropping flipped ones.
      while (!decisions_.empty() && decisions_.back().flipped) {
        assignment_[decisions_.back().input] = Value3::X;
        decisions_.pop_back();
      }
      if (decisions_.empty()) {
        result.outcome = PodemOutcome::Untestable;
        return result;
      }
      Decision& d = decisions_.back();
      d.flipped = true;
      d.value = Not3(d.value);
      assignment_[d.input] = d.value;
      if (++result.backtracks > limit_) {
        result.outcome = PodemOutcome::Aborted;
        return result;
      }
      Simulate();
    }
  }

  const Netlist& nl_;
  std::uint32_t limit_;
  std::vector<std::uint32_t> input_of_;  // NodeId -> core input index
  std::vector<bool> is_output_;          // core outputs
  StuckAtFault fault_{};
  std::vector<Value3> assignment_;
  std::vector<Value3> good_;
  std::vector<Value3> faulty_;
  std::vector<Decision> decisions_;
};

struct Tally {
  std::size_t outcomes[3] = {0, 0, 0};
  std::uint64_t backtracks = 0;
  std::size_t hinted = 0;

  void Add(const Tally& t) {
    for (int k = 0; k < 3; ++k) outcomes[k] += t.outcomes[k];
    backtracks += t.backtracks;
    hinted += t.hinted;
  }
  std::size_t Count(PodemOutcome o) const {
    return outcomes[static_cast<int>(o)];
  }
};

// Runs every fault of `faults` through one reference and one Podem (reused
// across all faults, so each search starts from the previous one's trail)
// and compares the results. With `chain_hints`, faults are visited grouped
// per fanout-free region and each region's last detected cube is passed as
// the hint, as GenerateDeterministicPatterns does.
Tally CompareSearches(const Netlist& nl,
                      const std::vector<StuckAtFault>& faults,
                      std::uint32_t limit, bool chain_hints) {
  std::vector<std::size_t> order(faults.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  const netlist::StructuralInfo& structure = nl.Structure();
  if (chain_hints) {
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return structure.FfrStemOf(faults[a].node) <
                              structure.FfrStemOf(faults[b].node);
                     });
  }
  ReferencePodem reference(nl, limit);
  Podem podem(nl, limit);
  Tally tally;
  NodeId stem = netlist::kInvalidNode;
  TestCube hint;
  bool have_hint = false;
  for (std::size_t i : order) {
    const StuckAtFault& f = faults[i];
    if (structure.FfrStemOf(f.node) != stem) {
      stem = structure.FfrStemOf(f.node);
      have_hint = false;
    }
    const TestCube* h = chain_hints && have_hint ? &hint : nullptr;
    const PodemResult want = reference.Generate(f, h);
    const PodemResult got = podem.Generate(f, h);
    const std::string where = sim::ToString(nl, f) + " limit " +
                              std::to_string(limit) +
                              (h ? " hinted" : " unhinted");
    EXPECT_EQ(got.outcome, want.outcome) << where;
    EXPECT_EQ(got.backtracks, want.backtracks) << where;
    if (want.outcome == PodemOutcome::Detected) {
      EXPECT_EQ(got.cube.bits, want.cube.bits) << where;
      hint = want.cube;
      have_hint = true;
    }
    ++tally.outcomes[static_cast<int>(want.outcome)];
    tally.backtracks += want.backtracks;
    tally.hinted += h != nullptr;
  }
  return tally;
}

// All limits {1, 10, 100}, unhinted and hint-chained.
Tally CompareAllModes(const Netlist& nl,
                      const std::vector<StuckAtFault>& faults) {
  Tally total;
  for (std::uint32_t limit : {1u, 10u, 100u}) {
    for (bool chain : {false, true}) {
      total.Add(CompareSearches(nl, faults, limit, chain));
    }
  }
  return total;
}

TEST(PodemOracle, SmallRandomCircuits) {
  Tally total;
  for (std::uint64_t seed : {1, 2, 3}) {
    const Netlist nl = bistdse::testing::MakeSmallRandom(seed, 160);
    total.Add(CompareAllModes(nl, sim::CollapsedFaults(nl)));
  }
  // The comparison must reach every outcome, backtracking and hints.
  EXPECT_GT(total.Count(PodemOutcome::Detected), 0u);
  EXPECT_GT(total.Count(PodemOutcome::Untestable), 0u);
  EXPECT_GT(total.Count(PodemOutcome::Aborted), 0u);
  EXPECT_GT(total.backtracks, 0u);
  EXPECT_GT(total.hinted, 0u);
}

TEST(PodemOracle, ScaledCutWithHardBlocks) {
  // An 800-gate, 96-flop member of the case-study CUT family, with its
  // random-pattern-resistant decoder blocks. Searched: every stem fault on a
  // core input (PIs and PPIs), every 5th fault on an XOR/XNOR gate and every
  // 29th of the rest.
  netlist::RandomCircuitSpec spec = casestudy::ScaledCutSpec(2);
  spec.num_gates = 800;
  spec.num_flops = 96;
  const Netlist nl = netlist::GenerateRandomCircuit(spec);
  std::vector<StuckAtFault> faults;
  std::size_t inputs = 0, parity = 0, rest = 0;
  for (const StuckAtFault& f : sim::CollapsedFaults(nl)) {
    const GateType type = nl.TypeOf(f.node);
    if (type == GateType::Input || (type == GateType::Dff && f.IsStem())) {
      faults.push_back(f);
      ++inputs;
    } else if (type == GateType::Xor || type == GateType::Xnor) {
      if (parity++ % 5 == 0) faults.push_back(f);
    } else if (rest++ % 29 == 0) {
      faults.push_back(f);
    }
  }
  ASSERT_GT(inputs, 0u);
  ASSERT_GT(parity, 0u);
  const Tally t = CompareAllModes(nl, faults);
  EXPECT_GT(t.Count(PodemOutcome::Aborted), 0u);
  EXPECT_GT(t.hinted, 0u);
}

TEST(PodemOracle, C17AndTinySequential) {
  for (const char* bench :
       {bistdse::testing::kC17, bistdse::testing::kTinySeq}) {
    const Netlist nl = netlist::ParseBenchString(bench);
    const Tally t = CompareAllModes(nl, sim::AllFaults(nl));
    EXPECT_GT(t.Count(PodemOutcome::Detected), 0u);
  }
}

TEST(PodemOracle, FlopDBranchAndRedundancy) {
  // The netlist of Podem.FlopDBranchFault (a flop D net with fanout 2), plus
  // a redundant OR(a, NOT a) and an XNOR reconverging on the flop's Q.
  Netlist nl;
  const NodeId a = nl.AddInput("a");
  const NodeId b = nl.AddInput("b");
  const NodeId g = nl.AddGate(GateType::And, {a, b});
  const NodeId q = nl.AddFlop(g);
  nl.MarkOutput(nl.AddGate(GateType::Not, {g}));
  const NodeId n = nl.AddGate(GateType::Not, {a});
  nl.MarkOutput(nl.AddGate(GateType::Or, {a, n}));
  nl.MarkOutput(nl.AddGate(GateType::Xnor, {q, g, b}));
  nl.Finalize();
  const Tally t = CompareAllModes(nl, sim::AllFaults(nl));
  EXPECT_GT(t.Count(PodemOutcome::Untestable), 0u);
}

}  // namespace
}  // namespace bistdse::atpg
