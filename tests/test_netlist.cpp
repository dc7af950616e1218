#include <gtest/gtest.h>

#include <stdexcept>

#include "netlist/bench_io.hpp"
#include "netlist/netlist.hpp"
#include "netlist/random_circuit.hpp"
#include "test_helpers.hpp"

namespace bistdse::netlist {
namespace {

TEST(Netlist, BuildsAndLevelizesSimpleCircuit) {
  Netlist nl;
  const NodeId a = nl.AddInput("a");
  const NodeId b = nl.AddInput("b");
  const NodeId g1 = nl.AddGate(GateType::And, {a, b}, "g1");
  const NodeId g2 = nl.AddGate(GateType::Not, {g1}, "g2");
  nl.MarkOutput(g2);
  nl.Finalize();

  EXPECT_EQ(nl.NodeCount(), 4u);
  EXPECT_EQ(nl.PrimaryInputs().size(), 2u);
  EXPECT_EQ(nl.PrimaryOutputs().size(), 1u);
  EXPECT_EQ(nl.LevelOf(a), 0u);
  EXPECT_EQ(nl.LevelOf(g1), 1u);
  EXPECT_EQ(nl.LevelOf(g2), 2u);
  EXPECT_EQ(nl.MaxLevel(), 2u);
  EXPECT_EQ(nl.CombinationalGateCount(), 2u);
  EXPECT_EQ(FindByName(nl, "g2"), g2);
  EXPECT_EQ(FindByName(nl, "nope"), kInvalidNode);
}

TEST(Netlist, FanoutsAreDerived) {
  Netlist nl;
  const NodeId a = nl.AddInput("a");
  const NodeId g1 = nl.AddGate(GateType::Not, {a});
  const NodeId g2 = nl.AddGate(GateType::Buf, {a});
  nl.MarkOutput(g1);
  nl.MarkOutput(g2);
  nl.Finalize();
  EXPECT_EQ(nl.FanoutCount(a), 2u);
  EXPECT_EQ(nl.FanoutCount(g1), 0u);
}

TEST(Netlist, RejectsArityViolations) {
  Netlist nl;
  const NodeId a = nl.AddInput("a");
  const NodeId b = nl.AddInput("b");
  EXPECT_THROW(nl.AddGate(GateType::Not, {a, b}), std::invalid_argument);
  EXPECT_THROW(nl.AddGate(GateType::Xor, {a}), std::invalid_argument);
  EXPECT_THROW(nl.AddGate(GateType::And, {}), std::invalid_argument);
}

TEST(Netlist, RejectsOutOfRangeFanin) {
  Netlist nl;
  nl.AddInput("a");
  EXPECT_THROW(nl.AddGate(GateType::Buf, {NodeId{99}}), std::invalid_argument);
}

TEST(Netlist, RejectsUseAfterFinalize) {
  Netlist nl;
  const NodeId a = nl.AddInput("a");
  nl.MarkOutput(a);
  nl.Finalize();
  EXPECT_THROW(nl.AddInput("b"), std::logic_error);
  EXPECT_THROW(nl.Finalize(), std::logic_error);
}

TEST(Netlist, FlopBreaksSequentialCycle) {
  // q feeds logic that feeds q's D input: legal (cycle through flop).
  Netlist nl;
  const NodeId a = nl.AddInput("a");
  const NodeId q = nl.AddFlop(a);  // placeholder fanin
  const NodeId x = nl.AddGate(GateType::Xor, {a, q});
  nl.RebindFlopInput(q, x);
  nl.MarkOutput(x);
  nl.Finalize();
  EXPECT_EQ(nl.CoreInputs().size(), 2u);   // a, q
  EXPECT_EQ(nl.CoreOutputs().size(), 2u);  // x (PO), x (PPO via q)
}

TEST(Netlist, CoreViewOrdersPisBeforePpis) {
  auto nl = ParseBenchString(testing::kTinySeq);
  ASSERT_EQ(nl.CoreInputs().size(), 4u);
  EXPECT_EQ(nl.TypeOf(nl.CoreInputs()[0]), GateType::Input);
  EXPECT_EQ(nl.TypeOf(nl.CoreInputs()[1]), GateType::Input);
  EXPECT_EQ(nl.TypeOf(nl.CoreInputs()[2]), GateType::Dff);
  EXPECT_EQ(nl.TypeOf(nl.CoreInputs()[3]), GateType::Dff);
  // Core outputs: 1 PO + 2 PPOs.
  EXPECT_EQ(nl.CoreOutputs().size(), 3u);
}

TEST(BenchIo, ParsesC17) {
  auto nl = testing::MakeC17();
  EXPECT_EQ(nl.PrimaryInputs().size(), 5u);
  EXPECT_EQ(nl.PrimaryOutputs().size(), 2u);
  EXPECT_EQ(nl.CombinationalGateCount(), 6u);
  for (NodeId id : nl.TopologicalOrder()) {
    EXPECT_EQ(nl.TypeOf(id), GateType::Nand);
  }
}

TEST(BenchIo, RoundTripsC17) {
  auto nl = testing::MakeC17();
  const std::string text = WriteBenchString(nl);
  auto nl2 = ParseBenchString(text);
  EXPECT_EQ(nl2.NodeCount(), nl.NodeCount());
  EXPECT_EQ(nl2.PrimaryInputs().size(), nl.PrimaryInputs().size());
  EXPECT_EQ(nl2.PrimaryOutputs().size(), nl.PrimaryOutputs().size());
  EXPECT_EQ(nl2.MaxLevel(), nl.MaxLevel());
}

TEST(BenchIo, ParsesSequentialWithForwardFlopReference) {
  auto nl = ParseBenchString(testing::kTinySeq);
  EXPECT_EQ(nl.Flops().size(), 2u);
  const NodeId q0 = FindByName(nl, "q0");
  const NodeId d0 = FindByName(nl, "d0");
  ASSERT_NE(q0, kInvalidNode);
  ASSERT_NE(d0, kInvalidNode);
  EXPECT_EQ(nl.FaninsOf(q0)[0], d0);
}

TEST(BenchIo, ReportsSyntaxErrorsWithLine) {
  EXPECT_THROW(ParseBenchString("INPUT(a)\nb = FROB(a)\n"), std::runtime_error);
  EXPECT_THROW(ParseBenchString("OUTPUT(missing)\n"), std::runtime_error);
  EXPECT_THROW(ParseBenchString("INPUT(a)\nb = AND(a, undef)\n"),
               std::runtime_error);
  EXPECT_THROW(ParseBenchString("INPUT(a)\na = NOT(a)\n"), std::runtime_error);
}

TEST(BenchIo, RejectsCombinationalCycle) {
  EXPECT_THROW(
      ParseBenchString("INPUT(a)\nOUTPUT(x)\nx = AND(a, y)\ny = NOT(x)\n"),
      std::runtime_error);
}

TEST(BenchIo, SurvivesGarbageWithoutCrashing) {
  // Fuzz-ish robustness: arbitrary garbage must throw, never crash.
  const char* cases[] = {
      "((((",
      "= NAND(1, 2)",
      "x = (",
      "INPUT()",
      "OUTPUT",
      "a = AND(b,,c)",
      "INPUT(a)\nx = AND(a)\nx = OR(a)\n",  // duplicate definition
      "\x01\x02\xff",
      "INPUT(a)\nOUTPUT(a)\nb = DFF(a, a)\n",  // DFF arity
  };
  for (const char* text : cases) {
    EXPECT_THROW(ParseBenchString(text), std::runtime_error) << text;
  }
}

TEST(RandomCircuit, IsDeterministic) {
  RandomCircuitSpec spec;
  spec.seed = 42;
  auto a = GenerateRandomCircuit(spec);
  auto b = GenerateRandomCircuit(spec);
  ASSERT_EQ(a.NodeCount(), b.NodeCount());
  for (NodeId id = 0; id < a.NodeCount(); ++id) {
    EXPECT_EQ(a.TypeOf(id), b.TypeOf(id));
    ASSERT_EQ(a.FaninsOf(id).size(), b.FaninsOf(id).size());
    for (std::size_t i = 0; i < a.FaninsOf(id).size(); ++i) {
      EXPECT_EQ(a.FaninsOf(id)[i], b.FaninsOf(id)[i]);
    }
  }
}

TEST(RandomCircuit, DifferentSeedsDiffer) {
  RandomCircuitSpec spec;
  spec.seed = 1;
  auto a = GenerateRandomCircuit(spec);
  spec.seed = 2;
  auto b = GenerateRandomCircuit(spec);
  bool any_diff = a.NodeCount() != b.NodeCount();
  for (NodeId id = 0; !any_diff && id < a.NodeCount(); ++id) {
    any_diff = a.TypeOf(id) != b.TypeOf(id);
  }
  EXPECT_TRUE(any_diff);
}

TEST(RandomCircuit, HonorsSpecCounts) {
  RandomCircuitSpec spec;
  spec.num_inputs = 10;
  spec.num_outputs = 5;
  spec.num_flops = 20;
  spec.num_gates = 500;
  auto nl = GenerateRandomCircuit(spec);
  EXPECT_EQ(nl.PrimaryInputs().size(), 10u);
  EXPECT_EQ(nl.PrimaryOutputs().size(), 5u);
  EXPECT_EQ(nl.Flops().size(), 20u);
  // Hard blocks may add a few extra gates around the budget.
  EXPECT_NEAR(static_cast<double>(nl.CombinationalGateCount()), 500.0, 120.0);
}

TEST(RandomCircuit, RejectsDegenerateSpecs) {
  RandomCircuitSpec spec;
  spec.num_inputs = 0;
  EXPECT_THROW(GenerateRandomCircuit(spec), std::invalid_argument);
  spec.num_inputs = 4;
  spec.num_gates = 0;
  EXPECT_THROW(GenerateRandomCircuit(spec), std::invalid_argument);
}

}  // namespace
}  // namespace bistdse::netlist
