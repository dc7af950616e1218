#include <gtest/gtest.h>

#include <set>

#include "sim/fault.hpp"
#include "test_helpers.hpp"

namespace bistdse::sim {
namespace {

using netlist::GateType;
using netlist::Netlist;
using netlist::NodeId;

TEST(Fault, CollapsedSubsetOfAll) {
  auto nl = testing::MakeC17();
  auto collapsed = CollapsedFaults(nl);
  auto all = AllFaults(nl);
  EXPECT_LT(collapsed.size(), all.size());
  std::set<std::tuple<NodeId, int, bool>> universe;
  for (const auto& f : all) universe.insert({f.node, f.fanin_index, f.stuck_value});
  for (const auto& f : collapsed) {
    EXPECT_TRUE(universe.count({f.node, f.fanin_index, f.stuck_value}))
        << ToString(nl, f);
  }
}

TEST(Fault, C17CollapsedCount) {
  // c17: 11 nodes. Stems: 22. Branch faults: only on fanout branches with
  // the NAND non-controlling polarity (SA1). Fanout > 1 nets: 3 (x2), 11
  // (x2), 16 (x2), 10/19/22/23 have fanout 1 or 0... input 3 feeds NAND10
  // and NAND11; 11 feeds NAND16, NAND19; 16 feeds NAND22, NAND23.
  // Each such pin contributes one SA1 fault: 6 branch faults total.
  auto nl = testing::MakeC17();
  auto collapsed = CollapsedFaults(nl);
  std::size_t stems = 0, branches = 0;
  for (const auto& f : collapsed) {
    if (f.IsStem()) {
      ++stems;
    } else {
      ++branches;
    }
  }
  EXPECT_EQ(stems, 2 * nl.NodeCount());
  EXPECT_EQ(branches, 6u);
  for (const auto& f : collapsed) {
    if (!f.IsStem()) {
      EXPECT_TRUE(f.stuck_value) << "NAND keeps only SA1 pins";
    }
  }
}

TEST(Fault, NoDuplicates) {
  auto nl = bistdse::testing::MakeSmallRandom(11);
  auto collapsed = CollapsedFaults(nl);
  std::set<std::tuple<NodeId, int, bool>> seen;
  for (const auto& f : collapsed) {
    EXPECT_TRUE(seen.insert({f.node, f.fanin_index, f.stuck_value}).second)
        << ToString(nl, f);
  }
}

TEST(Fault, BranchFaultsOnlyOnFanoutStems) {
  auto nl = bistdse::testing::MakeSmallRandom(13);
  auto collapsed = CollapsedFaults(nl);
  for (const auto& f : collapsed) {
    if (f.IsStem()) continue;
    const NodeId driver = nl.FaninsOf(f.node)[f.fanin_index];
    EXPECT_GT(nl.FanoutCount(driver), 1u) << ToString(nl, f);
    const GateType type = nl.TypeOf(f.node);
    const int ctrl = netlist::ControllingValue(type);
    if (ctrl >= 0) {
      // Kept branch faults on controlling-value gates are non-controlling.
      EXPECT_NE(static_cast<int>(f.stuck_value), ctrl) << ToString(nl, f);
    }
    EXPECT_NE(type, GateType::Buf);
    EXPECT_NE(type, GateType::Not);
  }
}

TEST(Fault, ToStringFormats) {
  auto nl = testing::MakeC17();
  StuckAtFault stem{FindByName(nl, "22"), -1, true};
  EXPECT_EQ(ToString(nl, stem), "22/SA1");
  StuckAtFault branch{FindByName(nl, "16"), 1, true};
  EXPECT_EQ(ToString(nl, branch), "16.in1/SA1");
}

TEST(Fault, CollapseRatioIsPlausible) {
  // Industrial collapsing typically keeps 50-70 % of the uncollapsed
  // universe; our structural rules should land in a similar band.
  auto nl = bistdse::testing::MakeSmallRandom(17, 600);
  const double ratio = static_cast<double>(CollapsedFaults(nl).size()) /
                       static_cast<double>(AllFaults(nl).size());
  EXPECT_GT(ratio, 0.3);
  EXPECT_LT(ratio, 0.8);
}

}  // namespace
}  // namespace bistdse::sim
