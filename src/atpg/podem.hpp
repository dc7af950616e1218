// PODEM (Path-Oriented DEcision Making) deterministic test generation.
//
// The generator operates on the full-scan combinational core: decisions are
// made only at core inputs (PIs and flop Qs); values propagate by two-plane
// three-valued simulation (a fault-free plane and a faulty plane with the
// target fault injected). A fault is detected when some core output differs
// between the planes with both values known.
//
// Implication is incremental. Every write of a node's (good, faulty) pair is
// recorded on a trail with one mark per decision: a backtrack unwinds the
// trail to the flipped decision's mark and event-propagates the new value,
// and a new search unwinds the whole trail back to the all-X state and
// injects its fault as events from the fault site. The set of nodes carrying
// D (both planes known and different) is kept up to date by the same writes
// and undos, so detection, the D-frontier and the X-path check start from it
// instead of scanning the netlist. None of this changes a decision: every
// state equals a full two-plane simulation of the current assignment.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "atpg/value3.hpp"
#include "netlist/netlist.hpp"
#include "sim/fault.hpp"

namespace bistdse::atpg {

/// A test cube: one Value3 per core input (CoreInputs() order). X positions
/// are don't-cares to be filled (randomly for BIST top-up patterns).
struct TestCube {
  std::vector<Value3> bits;

  std::size_t CareBitCount() const {
    std::size_t n = 0;
    for (Value3 v : bits) n += v != Value3::X;
    return n;
  }
};

enum class PodemOutcome : std::uint8_t {
  Detected,    ///< Cube generated.
  Untestable,  ///< Proven redundant (search space exhausted).
  Aborted,     ///< Backtrack limit hit.
};

struct PodemResult {
  PodemOutcome outcome = PodemOutcome::Aborted;
  TestCube cube;                 ///< Valid iff outcome == Detected.
  std::uint32_t backtracks = 0;  ///< Search effort spent.
};

class Podem {
 public:
  /// `backtrack_limit` bounds search effort per fault.
  explicit Podem(const netlist::Netlist& netlist,
                 std::uint32_t backtrack_limit = 200);

  /// Attempts to generate a test cube for `fault`. `hint` (optional) is a
  /// previously successful cube for a structurally related fault — typically
  /// another fault in the same fanout-free region, whose activation and
  /// propagation conditions overlap heavily. Its care bits are seeded as
  /// ordinary flippable decisions before the search starts, so completeness
  /// is untouched: an exhausted decision stack still proves untestability.
  /// If the hinted search aborts on the backtrack limit, the generator
  /// retries once without the hint — a hint can speed the search up but
  /// never change the outcome quality.
  PodemResult Generate(const sim::StuckAtFault& fault,
                       const TestCube* hint = nullptr);

 private:
  struct Decision {
    std::uint32_t input_index;  ///< Index into CoreInputs().
    Value3 value;
    bool flipped;
    /// Trail size before the decision was implied: its undo point.
    std::uint32_t trail_mark;
  };
  /// A node's planes before one write, restored when the trail unwinds.
  struct TrailEntry {
    netlist::NodeId node;
    Value3 good;
    Value3 faulty;
  };

  PodemResult GenerateImpl(const sim::StuckAtFault& fault,
                           const TestCube* hint);
  /// The one setter of a node's planes: trails the old pair, then writes.
  void SetPlanes(netlist::NodeId id, Value3 good, Value3 faulty);
  /// Writes a node's planes and keeps the D set (and its observed count) up
  /// to date; shared by SetPlanes and the unwind.
  void WritePlanes(netlist::NodeId id, Value3 good, Value3 faulty);
  /// Unwinds the trail to `mark`, restoring every overwritten pair.
  void UndoTo(std::size_t mark);
  /// From the all-X state, adds the forward events of the fault site: a stem
  /// fault forces its net, a branch fault may fix its gate's faulty output,
  /// a flop D-branch fault adds nothing inside the core.
  void InjectFault();
  /// Assigns one core input (both planes) and propagates its events. Sound
  /// because forward decisions only refine X values (Kleene monotonicity);
  /// a backtrack first unwinds the trail to the decision's mark.
  void AssignAndPropagate(std::uint32_t input_index, Value3 value);
  void Enqueue(netlist::NodeId id);
  void EnqueueFanouts(netlist::NodeId id);
  /// Evaluates the queued nodes in level order, writing changed pairs and
  /// enqueueing their combinational fanouts.
  void PropagateEvents();
  /// Recomputes one node's planes from its fanins (with fault overrides).
  std::pair<Value3, Value3> EvaluateNode(netlist::NodeId id);
  bool Detected() const;
  /// Next objective (node, value) or nullopt if the search hit a dead end.
  std::optional<std::pair<netlist::NodeId, Value3>> Objective() const;
  /// Maps an objective to a core-input assignment.
  std::optional<std::pair<std::uint32_t, Value3>> Backtrace(
      netlist::NodeId node, Value3 value) const;
  bool XPathExists();

  const netlist::Netlist& netlist_;
  std::uint32_t backtrack_limit_;
  sim::StuckAtFault fault_{};
  std::vector<Value3> assignment_;  // per core input
  std::vector<Value3> good_;        // per node
  std::vector<Value3> faulty_;      // per node
  std::vector<std::uint32_t> input_index_of_;  // NodeId -> core input index
  std::vector<std::uint32_t> topo_index_;      // NodeId -> topological position
  std::vector<Decision> decisions_;
  std::vector<TrailEntry> trail_;
  // Nodes carrying D, unordered; d_slot_ is each node's index in it.
  std::vector<netlist::NodeId> d_nodes_;
  std::vector<std::uint32_t> d_slot_;
  std::size_t observed_d_ = 0;  // D nodes that are core outputs
  // Event propagation scratch.
  std::vector<std::vector<netlist::NodeId>> level_buckets_;
  std::vector<std::uint8_t> in_queue_;
  std::uint32_t min_level_ = 0;
  std::uint32_t max_level_ = 0;
  // EvaluateNode scratch.
  std::vector<Value3> gvals_;
  std::vector<Value3> fvals_;
  // XPathExists scratch: epoch-stamped visit marks and the DFS stack.
  std::vector<std::uint32_t> visited_;
  std::uint32_t epoch_ = 0;
  std::vector<netlist::NodeId> stack_;
};

}  // namespace bistdse::atpg
