// ILP/PB encoding of the feasible-implementation set (paper §III-C).
//
// The Boolean selection structure of the paper — mapping variables m with
// the diagnosis constraints Eqs. 2a/2h/3a/3b and the functional binding
// constraints of [17] — is encoded into the PB/SAT solver. Routing (the
// c_r / c_{r,tau} variables of Eqs. 2b-2g) is *derived* instead of searched:
// on the tree-shaped automotive architectures targeted here every route is
// the unique shortest path, so the decoder constructs W deterministically
// from the binding and the full constraint system (including 2b-2g) is
// verified post-hoc by model::ValidateImplementation. This keeps decode
// throughput at the level the paper reports (100,000 evaluations in minutes)
// without weakening feasibility: every decoded implementation satisfies the
// complete characteristic function.
#pragma once

#include <cstdint>
#include <vector>

#include "model/implementation.hpp"
#include "model/specification.hpp"
#include "sat/solver.hpp"

namespace bistdse::dse {

/// The immutable part of SAT-decoding, built once and shared by every
/// decoder over the same specification (dse::SatDecoder): the indexed PB
/// instance, the mapping variables and the route table.
class EncodedProblem {
 public:
  /// Builds the PB instance for `spec` (must outlive this object).
  /// `augmentation` links each b^T to its b^D for Eq. 3b.
  EncodedProblem(const model::Specification& spec,
                 const model::BistAugmentation& augmentation);

  const model::Specification& Spec() const { return spec_; }
  const sat::Formula& Formula() const { return formula_; }

  /// Decision variables, aligned with spec.Mappings().
  const std::vector<sat::Var>& MappingVars() const { return mapping_vars_; }

  const model::RouteTable& Routes() const { return routes_; }

  /// Writes the binding (selected mapping indices, ascending) of `solver`'s
  /// model into `binding`.
  void BindingFromModel(const sat::Solver& solver,
                        std::vector<std::size_t>& binding) const;

 private:
  const model::Specification& spec_;
  sat::Formula formula_;
  std::vector<sat::Var> mapping_vars_;
  model::RouteTable routes_;
};

}  // namespace bistdse::dse
