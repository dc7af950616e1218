#include "bist/scan_sim.hpp"

#include <stdexcept>

#include <span>

#include "sim/logic_sim.hpp"

namespace bistdse::bist {

using netlist::Netlist;
using sim::BitPattern;

ScanChainSimulator::ScanChainSimulator(const Netlist& netlist,
                                       std::uint32_t num_chains)
    : netlist_(netlist) {
  if (!netlist.IsFinalized())
    throw std::invalid_argument("netlist must be finalized");
  if (num_chains == 0) throw std::invalid_argument("need at least one chain");
  const std::size_t flops = netlist.Flops().size();
  if (flops == 0) throw std::invalid_argument("scan needs flops");
  num_chains = static_cast<std::uint32_t>(
      std::min<std::size_t>(num_chains, flops));

  // Round-robin partitioning: every chain is non-empty and lengths differ
  // by at most one.
  chains_.resize(num_chains);
  for (std::size_t f = 0; f < flops; ++f) {
    chains_[f % num_chains].push_back(static_cast<std::uint32_t>(f));
  }
  for (const auto& chain : chains_) {
    max_chain_length_ =
        std::max(max_chain_length_, static_cast<std::uint32_t>(chain.size()));
  }
  flop_state_.assign(flops, 0);
}

void ScanChainSimulator::ShiftOneCycle(
    const std::vector<std::uint8_t>& scan_in,
    std::vector<std::uint8_t>* scan_out) {
  // All chains move one position toward their scan-out end (last element);
  // the scan-in bit enters at position 0.
  for (std::size_t c = 0; c < chains_.size(); ++c) {
    const auto& chain = chains_[c];
    if (scan_out) {
      (*scan_out)[c] = flop_state_[chain.back()];
    }
    for (std::size_t i = chain.size(); i-- > 1;) {
      flop_state_[chain[i]] = flop_state_[chain[i - 1]];
    }
    flop_state_[chain[0]] = scan_in[c];
  }
  ++cycles_;
}

BitPattern ScanChainSimulator::ApplyAndObserve(const BitPattern& pattern) {
  const auto core_inputs = netlist_.CoreInputs();
  const std::size_t num_pis = netlist_.PrimaryInputs().size();
  const std::size_t flops = netlist_.Flops().size();
  if (pattern.size() != core_inputs.size())
    throw std::invalid_argument("pattern width mismatch");

  // --- 1. shift-in: after L cycles, chain position i holds the load value
  // of flop chain[i]; so feed load[chain[L-1]], ..., load[chain[0]].
  for (std::size_t s = 0; s < max_chain_length_; ++s) {
    std::vector<std::uint8_t> scan_in(chains_.size(), 0);
    for (std::size_t c = 0; c < chains_.size(); ++c) {
      const auto& chain = chains_[c];
      // Cycle s feeds the bit destined for position (L_c - 1 - s); shorter
      // chains pad with zeros in their leading cycles.
      const std::size_t len = chain.size();
      const std::size_t lead = max_chain_length_ - len;
      if (s < lead) continue;
      const std::size_t target = len - 1 - (s - lead);
      scan_in[c] = pattern[num_pis + chain[target]] & 1;
    }
    ShiftOneCycle(scan_in, nullptr);
  }

  // --- 2. capture: evaluate the combinational core with PIs + flop state.
  sim::LogicSimulator simulator(netlist_);
  std::vector<sim::PatternWord> words(core_inputs.size());
  for (std::size_t i = 0; i < num_pis; ++i) {
    words[i] = pattern[i] ? ~sim::PatternWord{0} : 0;
  }
  for (std::size_t f = 0; f < flops; ++f) {
    words[num_pis + f] = flop_state_[f] ? ~sim::PatternWord{0} : 0;
  }
  simulator.Simulate(words);

  BitPattern response(netlist_.CoreOutputs().size(), 0);
  const std::size_t num_pos = netlist_.PrimaryOutputs().size();
  for (std::size_t o = 0; o < num_pos; ++o) {
    response[o] =
        static_cast<std::uint8_t>(simulator.ValueOf(netlist_.CoreOutputs()[o]) & 1);
  }
  // Capture cycle: every flop loads its D input.
  for (std::size_t f = 0; f < flops; ++f) {
    const netlist::NodeId d = netlist_.FaninsOf(netlist_.Flops()[f])[0];
    flop_state_[f] = static_cast<std::uint8_t>(simulator.ValueOf(d) & 1);
  }
  ++cycles_;

  // --- 3. shift-out: drain the captured state (zeros shift in; a real
  // session would overlap the next pattern's shift-in here, which is why
  // CyclesPerPattern() does not count these cycles).
  std::vector<BitPattern> out_streams(chains_.size());
  const std::uint64_t cycles_before_drain = cycles_;
  for (std::size_t s = 0; s < max_chain_length_; ++s) {
    std::vector<std::uint8_t> zeros(chains_.size(), 0);
    std::vector<std::uint8_t> scan_out(chains_.size(), 0);
    ShiftOneCycle(zeros, &scan_out);
    for (std::size_t c = 0; c < chains_.size(); ++c) {
      out_streams[c].push_back(scan_out[c]);
    }
  }
  cycles_ = cycles_before_drain;  // overlapped with the next shift-in

  // Scan-out order: chain position L-1 exits first.
  for (std::size_t c = 0; c < chains_.size(); ++c) {
    const auto& chain = chains_[c];
    for (std::size_t i = 0; i < chain.size(); ++i) {
      // Position i exits after (len - 1 - i) cycles.
      response[num_pos + chain[i]] = out_streams[c][chain.size() - 1 - i];
    }
  }
  return response;
}

}  // namespace bistdse::bist
