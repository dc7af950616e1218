#include <gtest/gtest.h>

#include "netlist/bench_io.hpp"
#include "sim/logic_sim.hpp"
#include "sim/pattern_set.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"

namespace bistdse::sim {
namespace {

using netlist::GateType;
using netlist::Netlist;
using netlist::NodeId;

TEST(EvalGate, TruthTables) {
  const PatternWord a = 0b1100, b = 0b1010;
  const PatternWord ab[] = {a, b};
  EXPECT_EQ(EvalGate(GateType::And, ab) & 0xF, 0b1000u);
  EXPECT_EQ(EvalGate(GateType::Nand, ab) & 0xF, 0b0111u);
  EXPECT_EQ(EvalGate(GateType::Or, ab) & 0xF, 0b1110u);
  EXPECT_EQ(EvalGate(GateType::Nor, ab) & 0xF, 0b0001u);
  EXPECT_EQ(EvalGate(GateType::Xor, ab) & 0xF, 0b0110u);
  EXPECT_EQ(EvalGate(GateType::Xnor, ab) & 0xF, 0b1001u);
  const PatternWord just_a[] = {a};
  EXPECT_EQ(EvalGate(GateType::Buf, just_a) & 0xF, 0b1100u);
  EXPECT_EQ(EvalGate(GateType::Not, just_a) & 0xF, 0b0011u);
}

TEST(EvalGate, WideGates) {
  const PatternWord v[] = {0b1111, 0b1101, 0b1011};
  EXPECT_EQ(EvalGate(GateType::And, v) & 0xF, 0b1001u);
  EXPECT_EQ(EvalGate(GateType::Or, v) & 0xF, 0b1111u);
  EXPECT_EQ(EvalGate(GateType::Xor, v) & 0xF, 0b1001u);
}

TEST(LogicSimulator, FullAdder) {
  Netlist nl;
  const NodeId a = nl.AddInput("a");
  const NodeId b = nl.AddInput("b");
  const NodeId cin = nl.AddInput("cin");
  const NodeId s1 = nl.AddGate(GateType::Xor, {a, b});
  const NodeId sum = nl.AddGate(GateType::Xor, {s1, cin});
  const NodeId c1 = nl.AddGate(GateType::And, {a, b});
  const NodeId c2 = nl.AddGate(GateType::And, {s1, cin});
  const NodeId cout = nl.AddGate(GateType::Or, {c1, c2});
  nl.MarkOutput(sum);
  nl.MarkOutput(cout);
  nl.Finalize();

  LogicSimulator simulator(nl);
  // All 8 combinations in bits 0..7: a = bit pattern, etc.
  const PatternWord wa = 0b10101010, wb = 0b11001100, wc = 0b11110000;
  const PatternWord words[] = {wa, wb, wc};
  simulator.Simulate(words);
  EXPECT_EQ(simulator.ValueOf(sum) & 0xFF, (wa ^ wb ^ wc) & 0xFF);
  EXPECT_EQ(simulator.ValueOf(cout) & 0xFF,
            ((wa & wb) | (wc & (wa ^ wb))) & 0xFF);
}

TEST(LogicSimulator, C17KnownVectors) {
  auto nl = testing::MakeC17();
  LogicSimulator simulator(nl);
  // c17 outputs: 22 = NAND(10,16), 23 = NAND(16,19).
  // Walk all 32 input combinations in one word.
  std::vector<PatternWord> words(5, 0);
  for (int p = 0; p < 32; ++p) {
    for (int i = 0; i < 5; ++i) {
      if ((p >> i) & 1) words[i] |= PatternWord{1} << p;
    }
  }
  simulator.Simulate(words);
  const PatternWord i1 = words[0], i2 = words[1], i3 = words[2], i6 = words[3],
                    i7 = words[4];
  const PatternWord n10 = ~(i1 & i3), n11 = ~(i3 & i6);
  const PatternWord n16 = ~(i2 & n11), n19 = ~(n11 & i7);
  const PatternWord o22 = ~(n10 & n16), o23 = ~(n16 & n19);
  EXPECT_EQ(simulator.ValueOf(FindByName(nl, "22")), o22);
  EXPECT_EQ(simulator.ValueOf(FindByName(nl, "23")), o23);
}

TEST(LogicSimulator, SequentialCoreView) {
  auto nl = netlist::ParseBenchString(testing::kTinySeq);
  LogicSimulator simulator(nl);
  // Core inputs: a, b, q0, q1. Set a=1, b=1, q0=1, q1=0.
  const PatternWord words[] = {~PatternWord{0}, ~PatternWord{0},
                               ~PatternWord{0}, 0};
  simulator.Simulate(words);
  // d0 = a XOR q1 = 1; d1 = b AND q0 = 1; y = q0 OR q1 = 1.
  EXPECT_EQ(simulator.ValueOf(FindByName(nl, "d0")), ~PatternWord{0});
  EXPECT_EQ(simulator.ValueOf(FindByName(nl, "d1")), ~PatternWord{0});
  EXPECT_EQ(simulator.ValueOf(FindByName(nl, "y")), ~PatternWord{0});
  auto outs = simulator.CoreOutputValues();
  ASSERT_EQ(outs.size(), 3u);
}

TEST(LogicSimulator, RejectsWrongInputCount) {
  auto nl = testing::MakeC17();
  LogicSimulator simulator(nl);
  std::vector<PatternWord> words(3, 0);
  EXPECT_THROW(simulator.Simulate(words), std::invalid_argument);
}

TEST(PatternSet, PackBlockLaysOutBitsPerLane) {
  std::vector<BitPattern> pats = {{1, 0, 1}, {0, 1, 1}};
  auto words = PackPatternBlock(pats, 0, 2, 3);
  ASSERT_EQ(words.size(), 3u);
  EXPECT_EQ(words[0], 0b01u);  // input 0: pattern0=1, pattern1=0
  EXPECT_EQ(words[1], 0b10u);
  EXPECT_EQ(words[2], 0b11u);
}

TEST(PatternSet, BlockMask) {
  EXPECT_EQ(BlockMask(0), 0u);
  EXPECT_EQ(BlockMask(1), 1u);
  EXPECT_EQ(BlockMask(64), ~PatternWord{0});
  EXPECT_EQ(BlockMask(63), ~PatternWord{0} >> 1);
}

// Property: word-parallel simulation agrees with 64 independent single-bit
// simulations on random circuits.
TEST(LogicSimulator, ParallelLanesAreIndependent) {
  auto nl = bistdse::testing::MakeSmallRandom(3);
  LogicSimulator parallel(nl);
  LogicSimulator single(nl);
  util::SplitMix64 rng(99);

  const std::size_t width = nl.CoreInputs().size();
  std::vector<PatternWord> words(width);
  for (auto& w : words) w = rng();
  parallel.Simulate(words);

  for (int lane : {0, 7, 31, 63}) {
    std::vector<PatternWord> bit(width);
    for (std::size_t i = 0; i < width; ++i) {
      bit[i] = (words[i] >> lane) & 1 ? ~PatternWord{0} : 0;
    }
    single.Simulate(bit);
    for (netlist::NodeId id : nl.CoreOutputs()) {
      EXPECT_EQ((parallel.ValueOf(id) >> lane) & 1, single.ValueOf(id) & 1)
          << "lane " << lane << " node " << id;
    }
  }
}

}  // namespace
}  // namespace bistdse::sim
