#include "dse/decoder.hpp"

#include <chrono>
#include <stdexcept>

namespace bistdse::dse {

void GenotypePolicy::Apply(const moea::Genotype& genotype,
                           std::span<const sat::Var> vars,
                           sat::Solver& solver) {
  if (genotype.priorities.size() != vars.size() ||
      genotype.phases.size() != vars.size())
    throw std::invalid_argument("genotype size mismatch");
  const std::vector<std::uint32_t>& order = order_.Compute(genotype);
  var_order_.resize(order.size());
  phases_.resize(order.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    var_order_[i] = vars[order[i]];
    phases_[i] = genotype.phases[order[i]];
  }
  solver.SetDecisionPolicy(var_order_, phases_);
}

SatDecoder::SatDecoder(const model::Specification& spec,
                       const model::BistAugmentation& augmentation,
                       bool validate_each_decode)
    : spec_(spec),
      problem_(spec, augmentation),
      routes_(spec.Architecture()),
      validate_each_decode_(validate_each_decode) {}

std::optional<model::Implementation> SatDecoder::Decode(
    const moea::Genotype& genotype) {
  ++stats_.decodes;
  policy_.Apply(genotype, problem_.MappingVars(), problem_.SolverRef());

  const auto solve_start = std::chrono::steady_clock::now();
  const sat::SolveResult result = problem_.SolverRef().Solve();
  stats_.decode_seconds +=
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    solve_start)
          .count();
  stats_.solver = problem_.SolverRef().Stats();
  if (result != sat::SolveResult::Sat) {
    ++stats_.infeasible;
    return std::nullopt;
  }

  model::Implementation impl;
  impl.binding = problem_.BindingFromModel();
  if (!model::CompleteRoutingAndAllocation(spec_, routes_, impl)) {
    ++stats_.infeasible;
    return std::nullopt;
  }
  if (validate_each_decode_) {
    const auto violations = model::ValidateImplementation(spec_, impl);
    if (!violations.empty()) {
      ++stats_.validation_failures;
      throw std::logic_error("decoded implementation violates constraints: " +
                             violations.front());
    }
  }
  return impl;
}

}  // namespace bistdse::dse
