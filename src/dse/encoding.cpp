#include "dse/encoding.hpp"

namespace bistdse::dse {

using model::ApplicationGraph;
using model::ResourceId;
using model::TaskId;
using model::TaskKind;
using sat::Lit;
using sat::PosLit;
using sat::NegLit;
using sat::Var;

EncodedProblem::EncodedProblem(const model::Specification& spec,
                               const model::BistAugmentation& augmentation)
    : spec_(spec) {
  const ApplicationGraph& app = spec.Application();
  const auto mappings = spec.Mappings();

  mapping_vars_.reserve(mappings.size());
  for (std::size_t i = 0; i < mappings.size(); ++i) {
    mapping_vars_.push_back(solver_.NewVar());
  }

  // Functional tasks (incl. b^R): exactly one mapping ([17]).
  // Diagnosis tasks: at most one (Eq. 2a).
  for (TaskId t = 0; t < app.TaskCount(); ++t) {
    const auto options = spec.MappingsOfTask(t);
    if (options.empty()) continue;
    std::vector<Lit> lits;
    lits.reserve(options.size());
    for (std::size_t m : options) lits.push_back(PosLit(mapping_vars_[m]));
    if (app.IsMandatory(t)) {
      solver_.AddExactlyOne(lits);
    } else {
      solver_.AddAtMostOne(lits);
    }
  }

  // Eq. 3a: at most one BIST test task per ECU.
  for (const auto& [ecu, programs] : augmentation.programs_by_ecu) {
    std::vector<Lit> lits;
    for (const auto& prog : programs) {
      for (std::size_t m : spec.MappingsOfTask(prog.test_task)) {
        lits.push_back(PosLit(mapping_vars_[m]));
      }
    }
    solver_.AddAtMostOne(lits);
  }

  // Eq. 3b: b^D bound iff b^T bound —
  //   sum(m_bD) = sum(m_bT), with both sums already <= 1.
  for (const auto& [ecu, programs] : augmentation.programs_by_ecu) {
    for (const auto& prog : programs) {
      const auto test_opts = spec.MappingsOfTask(prog.test_task);
      const auto data_opts = spec.MappingsOfTask(prog.data_task);
      // b^T -> some b^D option.
      for (std::size_t mt : test_opts) {
        std::vector<Lit> clause{NegLit(mapping_vars_[mt])};
        for (std::size_t md : data_opts)
          clause.push_back(PosLit(mapping_vars_[md]));
        solver_.AddClause(clause);
      }
      // any b^D option -> b^T (test task has a single option).
      for (std::size_t md : data_opts) {
        std::vector<Lit> clause{NegLit(mapping_vars_[md])};
        for (std::size_t mt : test_opts)
          clause.push_back(PosLit(mapping_vars_[mt]));
        solver_.AddClause(clause);
      }
    }
  }

  // Eq. 2h: a diagnosis mapping on resource r requires some non-diagnosis
  // task mapped on r.
  for (ResourceId r = 0; r < spec.Architecture().ResourceCount(); ++r) {
    const auto on_resource = spec.MappingsOnResource(r);
    std::vector<Lit> normal;
    for (std::size_t m : on_resource) {
      if (!model::IsDiagnosis(app.GetTask(mappings[m].task).kind)) {
        normal.push_back(PosLit(mapping_vars_[m]));
      }
    }
    for (std::size_t m : on_resource) {
      if (!model::IsDiagnosis(app.GetTask(mappings[m].task).kind)) continue;
      std::vector<Lit> clause{NegLit(mapping_vars_[m])};
      clause.insert(clause.end(), normal.begin(), normal.end());
      solver_.AddClause(clause);
    }
  }
}

std::vector<std::size_t> EncodedProblem::BindingFromModel() const {
  std::vector<std::size_t> binding;
  for (std::size_t m = 0; m < mapping_vars_.size(); ++m) {
    if (solver_.IsTrue(mapping_vars_[m])) binding.push_back(m);
  }
  return binding;
}

}  // namespace bistdse::dse
