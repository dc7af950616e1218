#include "dse/routing_encoding.hpp"

#include <algorithm>
#include <chrono>
#include <deque>
#include <stdexcept>

namespace bistdse::dse {

using model::ApplicationGraph;
using model::Message;
using model::MessageId;
using model::ResourceId;
using model::TaskId;
using sat::Lit;
using sat::NegLit;
using sat::PosLit;
using sat::Var;

RoutedEncodedProblem::RoutedEncodedProblem(
    const model::Specification& spec,
    const model::BistAugmentation& augmentation, std::uint32_t max_hops)
    : spec_(spec), max_hops_(max_hops) {
  for (std::size_t i = 0; i < spec.Mappings().size(); ++i) {
    mapping_vars_.push_back(solver_.NewVar());
  }
  EncodeMappingConstraints(augmentation);
  for (MessageId c = 0; c < spec.Application().MessageCount(); ++c) {
    EncodeRouting(c);
  }
}

void RoutedEncodedProblem::EncodeMappingConstraints(
    const model::BistAugmentation& augmentation) {
  const ApplicationGraph& app = spec_.Application();

  for (TaskId t = 0; t < app.TaskCount(); ++t) {
    const auto options = spec_.MappingsOfTask(t);
    if (options.empty()) continue;
    std::vector<Lit> lits;
    for (std::size_t m : options) lits.push_back(PosLit(mapping_vars_[m]));
    if (app.IsMandatory(t)) {
      solver_.AddExactlyOne(lits);
    } else {
      solver_.AddAtMostOne(lits);  // Eq. 2a
    }
  }

  // Eq. 3a / 3b.
  for (const auto& [ecu, programs] : augmentation.programs_by_ecu) {
    std::vector<Lit> per_ecu;
    for (const auto& prog : programs) {
      for (std::size_t m : spec_.MappingsOfTask(prog.test_task)) {
        per_ecu.push_back(PosLit(mapping_vars_[m]));
      }
      const auto test_opts = spec_.MappingsOfTask(prog.test_task);
      const auto data_opts = spec_.MappingsOfTask(prog.data_task);
      for (std::size_t mt : test_opts) {
        std::vector<Lit> clause{NegLit(mapping_vars_[mt])};
        for (std::size_t md : data_opts)
          clause.push_back(PosLit(mapping_vars_[md]));
        solver_.AddClause(clause);
      }
      for (std::size_t md : data_opts) {
        std::vector<Lit> clause{NegLit(mapping_vars_[md])};
        for (std::size_t mt : test_opts)
          clause.push_back(PosLit(mapping_vars_[mt]));
        solver_.AddClause(clause);
      }
    }
    solver_.AddAtMostOne(per_ecu);
  }

  // Eq. 2h.
  const auto mappings = spec_.Mappings();
  for (ResourceId r = 0; r < spec_.Architecture().ResourceCount(); ++r) {
    const auto on_resource = spec_.MappingsOnResource(r);
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

void RoutedEncodedProblem::EncodeRouting(MessageId c) {
  const ApplicationGraph& app = spec_.Application();
  const auto& arch = spec_.Architecture();
  const Message& msg = app.GetMessage(c);
  const auto mappings = spec_.Mappings();

  // --- candidate pruning: resources within max_hops of any sender mapping.
  std::vector<std::uint8_t> reachable(arch.ResourceCount(), 0);
  std::deque<std::pair<ResourceId, std::uint32_t>> queue;
  for (std::size_t m : spec_.MappingsOfTask(msg.sender)) {
    const ResourceId r = mappings[m].resource;
    if (!reachable[r]) {
      reachable[r] = 1;
      queue.emplace_back(r, 0);
    }
  }
  while (!queue.empty()) {
    const auto [r, depth] = queue.front();
    queue.pop_front();
    if (depth >= max_hops_) continue;
    for (ResourceId n : arch.Neighbors(r)) {
      if (!reachable[n]) {
        reachable[n] = 1;
        queue.emplace_back(n, depth + 1);
      }
    }
  }

  MessageVars mv;
  std::vector<std::int32_t> index_of(arch.ResourceCount(), -1);
  for (ResourceId r = 0; r < arch.ResourceCount(); ++r) {
    if (!reachable[r]) continue;
    index_of[r] = static_cast<std::int32_t>(mv.candidates.size());
    mv.candidates.push_back(r);
  }
  const std::uint32_t steps = max_hops_ + 1;
  for (std::size_t i = 0; i < mv.candidates.size(); ++i) {
    mv.on_resource.push_back(solver_.NewVar());
    mv.at_time.emplace_back();
    for (std::uint32_t t = 0; t < steps; ++t) {
      mv.at_time.back().push_back(solver_.NewVar());
    }
  }

  // --- Eq. 2b: route starts where the sender is bound.
  std::vector<std::uint8_t> is_sender_target(mv.candidates.size(), 0);
  for (std::size_t m : spec_.MappingsOfTask(msg.sender)) {
    const std::int32_t i = index_of[mappings[m].resource];
    is_sender_target[i] = 1;
    // c_{r,0} <-> m.
    solver_.AddClause({NegLit(mv.at_time[i][0]), PosLit(mapping_vars_[m])});
    solver_.AddClause({NegLit(mapping_vars_[m]), PosLit(mv.at_time[i][0])});
  }
  for (std::size_t i = 0; i < mv.candidates.size(); ++i) {
    if (!is_sender_target[i]) {
      solver_.AddClause({NegLit(mv.at_time[i][0])});
    }
  }

  // --- Eq. 2c: the message reaches every bound receiver.
  for (TaskId recv : msg.receivers) {
    for (std::size_t md : spec_.MappingsOfTask(msg.sender)) {
      for (std::size_t mt : spec_.MappingsOfTask(recv)) {
        const std::int32_t i = index_of[mappings[mt].resource];
        if (i < 0) {
          // Receiver resource unreachable within max_hops: forbid the combo.
          solver_.AddClause({NegLit(mapping_vars_[md]),
                             NegLit(mapping_vars_[mt])});
          continue;
        }
        solver_.AddClause({PosLit(mv.on_resource[i]),
                           NegLit(mapping_vars_[md]),
                           NegLit(mapping_vars_[mt])});
      }
    }
  }

  // --- Eqs. 2d/2e/2f.
  for (std::size_t i = 0; i < mv.candidates.size(); ++i) {
    std::vector<Lit> taus;
    for (std::uint32_t t = 0; t < steps; ++t) {
      taus.push_back(PosLit(mv.at_time[i][t]));
      // 2f: c_{r,t} -> c_r.
      solver_.AddClause({NegLit(mv.at_time[i][t]), PosLit(mv.on_resource[i])});
    }
    solver_.AddAtMostOne(taus);  // 2d (per resource)
    // 2e: c_r -> some time step.
    std::vector<Lit> clause{NegLit(mv.on_resource[i])};
    clause.insert(clause.end(), taus.begin(), taus.end());
    solver_.AddClause(clause);
  }
  // 2d (per time step, as in the paper's prose: one resource per step).
  for (std::uint32_t t = 0; t < steps; ++t) {
    std::vector<Lit> at_t;
    for (std::size_t i = 0; i < mv.candidates.size(); ++i) {
      at_t.push_back(PosLit(mv.at_time[i][t]));
    }
    solver_.AddAtMostOne(at_t);
  }

  // --- Eq. 2g: hops follow architecture links.
  for (std::size_t i = 0; i < mv.candidates.size(); ++i) {
    for (std::uint32_t t = 0; t + 1 < steps; ++t) {
      std::vector<Lit> clause{NegLit(mv.at_time[i][t + 1])};
      for (ResourceId n : arch.Neighbors(mv.candidates[i])) {
        const std::int32_t j = index_of[n];
        if (j >= 0) clause.push_back(PosLit(mv.at_time[j][t]));
      }
      solver_.AddClause(clause);
    }
  }

  message_vars_.emplace(c, std::move(mv));
}

model::Implementation RoutedEncodedProblem::ImplementationFromModel() const {
  model::Implementation impl;
  for (std::size_t m = 0; m < mapping_vars_.size(); ++m) {
    if (solver_.IsTrue(mapping_vars_[m])) impl.binding.push_back(m);
  }
  for (const auto& [c, mv] : message_vars_) {
    std::vector<std::pair<std::uint32_t, ResourceId>> hops;
    for (std::size_t i = 0; i < mv.candidates.size(); ++i) {
      for (std::uint32_t t = 0; t < mv.at_time[i].size(); ++t) {
        if (solver_.IsTrue(mv.at_time[i][t])) {
          hops.emplace_back(t, mv.candidates[i]);
        }
      }
    }
    if (hops.empty()) continue;
    std::sort(hops.begin(), hops.end());
    std::vector<ResourceId> path;
    for (const auto& [t, r] : hops) path.push_back(r);
    impl.routing[c] = std::move(path);
  }

  impl.allocation.assign(spec_.Architecture().ResourceCount(), false);
  for (std::size_t m : impl.binding) {
    impl.allocation[spec_.Mappings()[m].resource] = true;
  }
  for (const auto& [c, path] : impl.routing) {
    for (ResourceId r : path) impl.allocation[r] = true;
  }
  return impl;
}

RoutedSatDecoder::RoutedSatDecoder(const model::Specification& spec,
                                   const model::BistAugmentation& augmentation,
                                   std::uint32_t max_hops)
    : spec_(spec), problem_(spec, augmentation, max_hops) {}

std::optional<model::Implementation> RoutedSatDecoder::Decode(
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
  return problem_.ImplementationFromModel();
}

}  // namespace bistdse::dse
