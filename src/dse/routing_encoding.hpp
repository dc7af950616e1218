// Complete ILP encoding of paper §III-C including the time-indexed routing
// variables:
//
//   m       — mapping selected                      (Theta, first block)
//   c_r     — message c routed over resource r      (second block)
//   c_{r,t} — ... at time step t                    (third block)
//
// with constraints Eqs. 2a-2h and 3a/3b exactly as printed. The default
// decoder (dse::SatDecoder) derives routes deterministically because they
// are unique on tree-shaped automotive topologies; this encoding searches
// them, which (a) certifies the derived router against the paper's
// characteristic function and (b) supports redundant (non-tree)
// architectures where several routes exist per message.
//
// Per-message resource candidates are pruned to the resources reachable
// within `max_hops` of any sender mapping (otherwise |C| x |R| x |T|
// variables explode); this is a standard model-pruning step that removes
// only provably unusable variables.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "dse/decoder.hpp"
#include "model/implementation.hpp"
#include "model/specification.hpp"
#include "moea/genotype.hpp"
#include "sat/solver.hpp"

namespace bistdse::dse {

class RoutedEncodedProblem {
 public:
  RoutedEncodedProblem(const model::Specification& spec,
                       const model::BistAugmentation& augmentation,
                       std::uint32_t max_hops = 5);

  /// The indexed PB instance every decoder over this problem searches.
  const sat::Formula& Formula() const { return formula_; }
  const std::vector<sat::Var>& MappingVars() const { return mapping_vars_; }
  std::size_t VariableCount() const { return formula_.VarCount(); }

  /// Extracts the full implementation (binding + solver-chosen routes,
  /// ordered by time step) from `solver`'s model.
  model::Implementation ImplementationFromModel(
      const sat::Solver& solver) const;

 private:
  struct MessageVars {
    std::vector<model::ResourceId> candidates;  // pruned resource set
    std::vector<sat::Var> on_resource;          // c_r, aligned with candidates
    std::vector<std::vector<sat::Var>> at_time;  // c_{r,t} [candidate][t]
  };

  void EncodeMappingConstraints(const model::BistAugmentation& augmentation);
  void EncodeRouting(model::MessageId c);

  const model::Specification& spec_;
  std::uint32_t max_hops_;
  sat::Formula formula_;
  std::vector<sat::Var> mapping_vars_;
  std::map<model::MessageId, MessageVars> message_vars_;
};

/// SAT decoder over the complete (routing-inclusive) encoding. Same genotype
/// convention as dse::SatDecoder: genes address the mapping variables; the
/// routing variables are decided by the solver (preferred phase false, so
/// routes stay minimal-ish).
class RoutedSatDecoder {
 public:
  RoutedSatDecoder(const model::Specification& spec,
                   const model::BistAugmentation& augmentation,
                   std::uint32_t max_hops = 5);

  std::size_t GenotypeSize() const { return problem_->MappingVars().size(); }
  std::size_t VariableCount() const { return problem_->VariableCount(); }

  std::optional<model::Implementation> Decode(const moea::Genotype& genotype);

  const DecoderStats& Stats() const { return stats_; }

 private:
  std::shared_ptr<const RoutedEncodedProblem> problem_;
  sat::Solver solver_;
  GenotypePolicy policy_;
  DecoderStats stats_;
};

}  // namespace bistdse::dse
