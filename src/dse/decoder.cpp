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
    : SatDecoder(std::make_shared<const EncodedProblem>(spec, augmentation),
                 validate_each_decode) {}

SatDecoder::SatDecoder(std::shared_ptr<const EncodedProblem> problem,
                       bool validate_each_decode)
    : problem_(std::move(problem)),
      solver_(std::shared_ptr<const sat::Formula>(problem_,
                                                  &problem_->Formula())),
      validate_each_decode_(validate_each_decode) {}

bool SatDecoder::DecodeInto(const moea::Genotype& genotype,
                            model::Implementation& impl) {
  ++stats_.decodes;
  policy_.Apply(genotype, problem_->MappingVars(), solver_);

  const auto solve_start = std::chrono::steady_clock::now();
  const sat::SolveResult result = solver_.Solve();
  stats_.decode_seconds +=
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    solve_start)
          .count();
  stats_.solver = solver_.Stats();
  if (result != sat::SolveResult::Sat) {
    ++stats_.infeasible;
    return false;
  }

  const model::Specification& spec = problem_->Spec();
  problem_->BindingFromModel(solver_, impl.binding);
  if (!model::CompleteRoutingAndAllocation(spec, problem_->Routes(), impl)) {
    ++stats_.infeasible;
    return false;
  }
  if (validate_each_decode_) {
    const auto violations = model::ValidateImplementation(spec, impl);
    if (!violations.empty()) {
      ++stats_.validation_failures;
      throw std::logic_error("decoded implementation violates constraints: " +
                             violations.front());
    }
  }
  return true;
}

std::optional<model::Implementation> SatDecoder::Decode(
    const moea::Genotype& genotype) {
  model::Implementation impl;
  if (!DecodeInto(genotype, impl)) return std::nullopt;
  return impl;
}

}  // namespace bistdse::dse
