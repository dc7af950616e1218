#include "sim/fault_sim.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace bistdse::sim {

using netlist::GateType;
using netlist::kInvalidNode;
using netlist::Netlist;
using netlist::NodeId;
using netlist::StructuralInfo;

namespace {

constexpr PatternWord Mask(bool v) { return v ? ~PatternWord{0} : PatternWord{0}; }

template <std::size_t W>
constexpr WideWord<W> MaskWide(bool v) {
  return v ? WideWord<W>::Ones() : WideWord<W>::Zero();
}

constexpr std::uint64_t kNoEpoch = std::numeric_limits<std::uint64_t>::max();

}  // namespace

template <std::size_t W>
FaultSimulatorT<W>::FaultSimulatorT(const Netlist& netlist,
                                    bool structural_shortcuts)
    : FaultSimulatorT(netlist, nullptr, structural_shortcuts) {}

template <std::size_t W>
FaultSimulatorT<W>::FaultSimulatorT(const Netlist& netlist,
                                    const LogicSimulatorT<W>* shared_good,
                                    bool structural_shortcuts)
    : netlist_(netlist),
      structure_(&netlist.Structure()),
      good_owned_(shared_good ? nullptr
                              : std::make_unique<LogicSimulatorT<W>>(netlist)),
      good_(shared_good ? shared_good : good_owned_.get()),
      shortcuts_(structural_shortcuts),
      fval_(netlist.NodeCount(), Word::Zero()),
      is_touched_(netlist.NodeCount(), 0),
      observed_count_(netlist.NodeCount(), 0),
      level_buckets_(netlist.MaxLevel() + 1),
      in_queue_(netlist.NodeCount(), 0),
      obs_(structural_shortcuts ? netlist.NodeCount() : 0, Word::Zero()),
      obs_epoch_(structural_shortcuts ? netlist.NodeCount() : 0, kNoEpoch) {
  const auto outs = netlist.CoreOutputs();
  for (NodeId id : outs) ++observed_count_[id];
  output_begin_.assign(netlist.NodeCount() + 1, 0);
  for (std::size_t n = 0; n < netlist.NodeCount(); ++n) {
    output_begin_[n + 1] = output_begin_[n] + observed_count_[n];
  }
  output_pos_.resize(outs.size());
  std::vector<std::uint32_t> fill(output_begin_.begin(),
                                  output_begin_.end() - 1);
  for (std::size_t j = 0; j < outs.size(); ++j) {
    output_pos_[fill[outs[j]]++] = static_cast<std::uint32_t>(j);
  }
  ppo_pos_.assign(netlist.NodeCount(), 0);
  const auto flops = netlist.Flops();
  for (std::size_t i = 0; i < flops.size(); ++i) {
    ppo_pos_[flops[i]] =
        static_cast<std::uint32_t>(netlist.PrimaryOutputs().size() + i);
  }
}

template <std::size_t W>
FaultSimulatorT<W> FaultSimulatorT<W>::WorkerClone(
    const FaultSimulatorT<W>& parent) {
  return FaultSimulatorT(parent.netlist_, parent.good_, parent.shortcuts_);
}

template <std::size_t W>
void FaultSimulatorT<W>::SetPatternBlock(std::span<const PatternWord> words) {
  if (!good_owned_) {
    throw std::logic_error(
        "worker clones share the parent's pattern block; call "
        "SetPatternBlock() on the owning simulator");
  }
  good_owned_->Simulate(words);
}

template <std::size_t W>
void FaultSimulatorT<W>::Reset() {
  for (NodeId id : touched_) is_touched_[id] = 0;
  touched_.clear();
}

template <std::size_t W>
WideWord<W> FaultSimulatorT<W>::SiteValue(const StuckAtFault& fault) {
  if (fault.IsStem()) return MaskWide<W>(fault.stuck_value);
  const NodeId site = fault.node;
  const auto fanins = netlist_.FaninsOf(site);
  if (fault.fanin_index >= static_cast<int>(fanins.size()))
    throw std::invalid_argument("fault pin out of range");
  site_vals_.clear();
  for (std::size_t i = 0; i < fanins.size(); ++i) {
    site_vals_.push_back(static_cast<int>(i) == fault.fanin_index
                             ? MaskWide<W>(fault.stuck_value)
                             : good_->BlockOf(fanins[i]));
  }
  return EvalGateWide<W>(netlist_.TypeOf(site), site_vals_);
}

template <std::size_t W>
WideWord<W> FaultSimulatorT<W>::EvalWithOverride(NodeId id, NodeId node,
                                                 const Word& val) {
  const auto fanins = netlist_.FaninsOf(id);
  fanin_ptrs_.clear();
  for (NodeId f : fanins) {
    fanin_ptrs_.push_back(f == node ? &val : &good_->BlockOf(f));
  }
  return EvalGateWide<W>(netlist_.TypeOf(id), fanin_ptrs_);
}

template <std::size_t W>
WideWord<W> FaultSimulatorT<W>::Propagate(const StuckAtFault& fault) {
  const NodeId site = fault.node;
  const GateType site_type = netlist_.TypeOf(site);

  // Flop D-branch faults only corrupt the captured PPO value; the effect
  // does not propagate combinationally in the same cycle.
  if (site_type == GateType::Dff && !fault.IsStem()) {
    const NodeId driver = netlist_.FaninsOf(site)[0];
    return good_->BlockOf(driver) ^ MaskWide<W>(fault.stuck_value);
  }

  const Word site_value = SiteValue(fault);
  const Word site_diff = site_value ^ good_->BlockOf(site);
  if (!site_diff.Any()) return Word::Zero();

  fval_[site] = site_value;
  is_touched_[site] = 1;
  touched_.push_back(site);
  Word detect = observed_count_[site] ? site_diff : Word::Zero();

  auto value_of = [&](NodeId id) -> const Word& {
    return is_touched_[id] ? fval_[id] : good_->BlockOf(id);
  };

  std::uint32_t min_level = netlist_.MaxLevel() + 1;
  std::uint32_t max_pending = 0;
  auto enqueue_fanouts = [&](NodeId id) {
    for (NodeId out : netlist_.FanoutsOf(id)) {
      if (netlist_.TypeOf(out) == GateType::Dff) continue;  // observed at driver
      if (in_queue_[out]) continue;
      in_queue_[out] = 1;
      const std::uint32_t lvl = netlist_.LevelOf(out);
      level_buckets_[lvl].push_back(out);
      min_level = std::min(min_level, lvl);
      max_pending = std::max(max_pending, lvl);
    }
  };
  enqueue_fanouts(site);

  for (std::uint32_t lvl = min_level; lvl <= max_pending; ++lvl) {
    auto& bucket = level_buckets_[lvl];
    for (std::size_t i = 0; i < bucket.size(); ++i) {
      const NodeId id = bucket[i];
      in_queue_[id] = 0;
      const auto fanins = netlist_.FaninsOf(id);
      fanin_ptrs_.clear();
      for (NodeId f : fanins) fanin_ptrs_.push_back(&value_of(f));
      const Word nv = EvalGateWide<W>(netlist_.TypeOf(id), fanin_ptrs_);
      const Word old = value_of(id);
      if (nv == old) continue;
      if (!is_touched_[id]) {
        is_touched_[id] = 1;
        touched_.push_back(id);
      }
      fval_[id] = nv;
      if (observed_count_[id]) detect |= nv ^ good_->BlockOf(id);
      enqueue_fanouts(id);
    }
    bucket.clear();
  }
  return detect;
}

template <std::size_t W>
WideWord<W> FaultSimulatorT<W>::PropagateFlip(NodeId node) {
  const std::uint64_t gen = good_->Generation();

  // Flipping an observed node changes that output on every pattern.
  Word detect = observed_count_[node] ? Word::Ones() : Word::Zero();

  fval_[node] = ~good_->BlockOf(node);
  is_touched_[node] = 1;
  touched_.push_back(node);

  auto value_of = [&](NodeId id) -> const Word& {
    return is_touched_[id] ? fval_[id] : good_->BlockOf(id);
  };

  std::uint32_t min_level = netlist_.MaxLevel() + 1;
  std::uint32_t max_pending = 0;
  std::size_t pending = 0;
  auto enqueue_fanouts = [&](NodeId id) {
    for (NodeId out : netlist_.FanoutsOf(id)) {
      if (netlist_.TypeOf(out) == GateType::Dff) continue;
      if (in_queue_[out]) continue;
      in_queue_[out] = 1;
      ++pending;
      const std::uint32_t lvl = netlist_.LevelOf(out);
      level_buckets_[lvl].push_back(out);
      min_level = std::min(min_level, lvl);
      max_pending = std::max(max_pending, lvl);
    }
  };
  enqueue_fanouts(node);

  for (std::uint32_t lvl = min_level; lvl <= max_pending; ++lvl) {
    // Dominator cut: when exactly one node is pending (at any level), no
    // wave-reachable gate has a touched side fanin — every fanout of a
    // differing node would itself be pending. The remaining propagation is
    // therefore the single pending node's diff masked by its own
    // observability; if that observability is already cached for this
    // block, finish here instead of walking the whole downstream cone.
    if (pending == 1) {
      std::uint32_t dl = lvl;
      while (level_buckets_[dl].empty()) ++dl;
      const NodeId d = level_buckets_[dl].back();
      if (obs_epoch_[d] == gen) {
        const Word nv = [&] {
          const auto fanins = netlist_.FaninsOf(d);
          fanin_ptrs_.clear();
          for (NodeId f : fanins) fanin_ptrs_.push_back(&value_of(f));
          return EvalGateWide<W>(netlist_.TypeOf(d), fanin_ptrs_);
        }();
        detect |= (nv ^ good_->BlockOf(d)) & obs_[d];
        in_queue_[d] = 0;
        level_buckets_[dl].clear();
        return detect;
      }
    }
    auto& bucket = level_buckets_[lvl];
    for (std::size_t i = 0; i < bucket.size(); ++i) {
      const NodeId id = bucket[i];
      in_queue_[id] = 0;
      --pending;
      const auto fanins = netlist_.FaninsOf(id);
      fanin_ptrs_.clear();
      for (NodeId f : fanins) fanin_ptrs_.push_back(&value_of(f));
      const Word nv = EvalGateWide<W>(netlist_.TypeOf(id), fanin_ptrs_);
      const Word old = value_of(id);
      if (nv == old) continue;
      if (!is_touched_[id]) {
        is_touched_[id] = 1;
        touched_.push_back(id);
      }
      fval_[id] = nv;
      if (observed_count_[id]) detect |= nv ^ good_->BlockOf(id);
      enqueue_fanouts(id);
    }
    bucket.clear();
  }
  return detect;
}

template <std::size_t W>
const WideWord<W>& FaultSimulatorT<W>::ObsOf(NodeId node) {
  const std::uint64_t gen = good_->Generation();
  if (obs_epoch_[node] != gen) {
    // Warm the cache along the immediate-post-dominator chain, furthest
    // dominator first, so every flip propagation below can cut as soon as
    // its frontier collapses onto an already-cached dominator.
    obs_chain_.clear();
    for (NodeId d = node; d != StructuralInfo::kExitNode &&
                          d != kInvalidNode && obs_epoch_[d] != gen;
         d = structure_->IPostDomOf(d)) {
      obs_chain_.push_back(d);
    }
    for (auto it = obs_chain_.rbegin(); it != obs_chain_.rend(); ++it) {
      const Word o = PropagateFlip(*it);
      Reset();
      obs_[*it] = o;
      obs_epoch_[*it] = gen;
    }
  }
  return obs_[node];
}

template <std::size_t W>
WideWord<W> FaultSimulatorT<W>::DetectShortcut(const StuckAtFault& fault) {
  const NodeId site = fault.node;
  const GateType site_type = netlist_.TypeOf(site);

  // Flop D-branch faults only corrupt the captured PPO value.
  if (site_type == GateType::Dff && !fault.IsStem()) {
    const NodeId driver = netlist_.FaninsOf(site)[0];
    return good_->BlockOf(driver) ^ MaskWide<W>(fault.stuck_value);
  }

  // Walk the fanout-free chain from the site to the region stem. Every node
  // on the way has exactly one combinational fanout, so the fault effect is
  // a single moving diff re-evaluated gate by gate — no event queue, no
  // touched bookkeeping.
  Word val = SiteValue(fault);
  Word diff = val ^ good_->BlockOf(site);
  Word detect = Word::Zero();
  NodeId n = site;
  for (;;) {
    if (!diff.Any()) return detect;
    if (structure_->FfrStemOf(n) == n) {
      return detect | (diff & ObsOf(n));
    }
    if (observed_count_[n]) detect |= diff;
    NodeId next = kInvalidNode;
    for (NodeId out : netlist_.FanoutsOf(n)) {
      if (netlist_.TypeOf(out) != GateType::Dff) {
        next = out;
        break;
      }
    }
    val = EvalWithOverride(next, n, val);
    diff = val ^ good_->BlockOf(next);
    n = next;
  }
}

template <std::size_t W>
WideWord<W> FaultSimulatorT<W>::DetectBlock(const StuckAtFault& fault) {
  if (shortcuts_) return DetectShortcut(fault);
  const Word det = Propagate(fault);
  Reset();
  return det;
}

template <std::size_t W>
std::span<const OutputError> FaultSimulatorT<W>::OutputErrors(
    const StuckAtFault& fault, const Word& mask) {
  errors_.clear();
  const auto emit = [&](std::span<const std::uint32_t> positions,
                        const Word& diff) {
    for (std::size_t l = 0; l < W; ++l) {
      const PatternWord bits = diff.lane[l] & mask.lane[l];
      if (bits == 0) continue;
      for (const std::uint32_t j : positions) {
        errors_.push_back({j, static_cast<std::uint32_t>(l), bits});
      }
    }
  };

  if (netlist_.TypeOf(fault.node) == GateType::Dff && !fault.IsStem()) {
    // A flop D-branch fault corrupts only the value that flop captures: its
    // own PPO position, even when the driver feeds other outputs too.
    const NodeId driver = netlist_.FaninsOf(fault.node)[0];
    emit({&ppo_pos_[fault.node], 1},
         good_->BlockOf(driver) ^ MaskWide<W>(fault.stuck_value));
    return errors_;
  }
  Propagate(fault);
  for (NodeId id : touched_) {
    if (observed_count_[id]) {
      emit({&output_pos_[output_begin_[id]], observed_count_[id]},
           fval_[id] ^ good_->BlockOf(id));
    }
  }
  Reset();
  return errors_;
}

template <std::size_t W>
std::vector<PatternWord> FaultSimulatorT<W>::FaultyResponse(
    const StuckAtFault& fault) {
  const GateType site_type = netlist_.TypeOf(fault.node);
  std::vector<PatternWord> response;
  const auto outs = netlist_.CoreOutputs();
  response.reserve(outs.size() * W);

  if (site_type == GateType::Dff && !fault.IsStem()) {
    // Only the faulted flop's captured bit is corrupted — and it is stuck.
    for (NodeId id : outs) {
      for (std::size_t l = 0; l < W; ++l) {
        response.push_back(good_->BlockOf(id).lane[l]);
      }
    }
    // The PPO for flop f is listed at position PrimaryOutputs().size() +
    // index_of(f) and reads the driver's value; overwrite that slot.
    const auto flops = netlist_.Flops();
    for (std::size_t i = 0; i < flops.size(); ++i) {
      if (flops[i] == fault.node) {
        const std::size_t slot = netlist_.PrimaryOutputs().size() + i;
        for (std::size_t l = 0; l < W; ++l) {
          response[slot * W + l] = Mask(fault.stuck_value);
        }
      }
    }
    return response;
  }

  Propagate(fault);
  for (NodeId id : outs) {
    const Word& v = is_touched_[id] ? fval_[id] : good_->BlockOf(id);
    for (std::size_t l = 0; l < W; ++l) response.push_back(v.lane[l]);
  }
  Reset();
  return response;
}

template class FaultSimulatorT<1>;
template class FaultSimulatorT<2>;
template class FaultSimulatorT<4>;
template class FaultSimulatorT<8>;
template class FaultSimulatorT<16>;

// CountDetectedFaults lives in campaign.cpp: it is a stored-source drop
// campaign on the streaming CampaignRunner kernel.

}  // namespace bistdse::sim
