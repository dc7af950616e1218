#include "model/specification.hpp"

#include <algorithm>
#include <stdexcept>

namespace bistdse::model {

std::size_t Specification::AddMapping(TaskId task, ResourceId resource) {
  if (task >= application_.TaskCount())
    throw std::invalid_argument("mapping task out of range");
  if (resource >= architecture_.ResourceCount())
    throw std::invalid_argument("mapping resource out of range");
  if (!IsComputational(architecture_.GetResource(resource).kind))
    throw std::invalid_argument("tasks cannot be mapped onto buses");
  for (std::size_t m : MappingsOfTask(task)) {
    if (mappings_[m].resource == resource)
      throw std::invalid_argument("duplicate mapping option");
  }
  const std::size_t index = mappings_.size();
  mappings_.push_back({task, resource});
  by_task_.resize(application_.TaskCount());
  by_resource_.resize(architecture_.ResourceCount());
  by_task_[task].push_back(index);
  by_resource_[resource].push_back(index);
  return index;
}

std::span<const std::size_t> Specification::MappingsOfTask(TaskId task) const {
  static const std::vector<std::size_t> kEmpty;
  if (task >= by_task_.size()) return kEmpty;
  return by_task_[task];
}

std::span<const std::size_t> Specification::MappingsOnResource(
    ResourceId resource) const {
  static const std::vector<std::size_t> kEmpty;
  if (resource >= by_resource_.size()) return kEmpty;
  return by_resource_[resource];
}

void Specification::Validate() const {
  for (TaskId t = 0; t < application_.TaskCount(); ++t) {
    if (application_.IsMandatory(t) && MappingsOfTask(t).empty()) {
      throw std::logic_error("mandatory task '" +
                             application_.GetTask(t).name +
                             "' has no mapping option");
    }
  }
  for (MessageId c = 0; c < application_.MessageCount(); ++c) {
    const Message& msg = application_.GetMessage(c);
    if (!msg.diagnostic) continue;
    const Task& sender = application_.GetTask(msg.sender);
    bool receiver_ok = true;
    for (TaskId r : msg.receivers) {
      const TaskKind k = application_.GetTask(r).kind;
      receiver_ok &= k == TaskKind::BistTest || k == TaskKind::BistCollect;
    }
    if (!(IsDiagnosis(sender.kind)) || !receiver_ok) {
      throw std::logic_error("diagnostic message '" + msg.name +
                             "' must connect diagnosis tasks per Fig. 3");
    }
  }
}

std::uint64_t ContentHash(const Specification& spec) {
  std::uint64_t h = 1469598103934665603ULL;
  const auto bytes = [&h](const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 1099511628211ULL;
    }
  };
  const auto u64 = [&bytes](std::uint64_t v) { bytes(&v, sizeof v); };
  const auto real = [&bytes](double v) { bytes(&v, sizeof v); };
  const auto str = [&bytes, &u64](const std::string& s) {
    u64(s.size());
    bytes(s.data(), s.size());
  };

  const ArchitectureGraph& arch = spec.Architecture();
  u64(arch.ResourceCount());
  for (ResourceId r = 0; r < arch.ResourceCount(); ++r) {
    const Resource& res = arch.GetResource(r);
    str(res.name);
    u64(static_cast<std::uint64_t>(res.kind));
    real(res.base_cost);
    real(res.cost_per_byte);
    real(res.bus_bitrate_bps);
    const auto neighbors = arch.Neighbors(r);
    u64(neighbors.size());
    for (ResourceId n : neighbors) u64(n);
  }

  const ApplicationGraph& app = spec.Application();
  u64(app.TaskCount());
  for (TaskId t = 0; t < app.TaskCount(); ++t) {
    const Task& task = app.GetTask(t);
    str(task.name);
    u64(static_cast<std::uint64_t>(task.kind));
    u64(task.target_ecu);
    u64(task.profile_index);
    real(task.fault_coverage_percent);
    real(task.transition_coverage_percent);
    real(task.runtime_ms);
    u64(task.data_bytes);
  }
  u64(app.MessageCount());
  for (MessageId c = 0; c < app.MessageCount(); ++c) {
    const Message& msg = app.GetMessage(c);
    str(msg.name);
    u64(msg.sender);
    u64(msg.receivers.size());
    for (TaskId r : msg.receivers) u64(r);
    u64(msg.payload_bytes);
    real(msg.period_ms);
    u64(msg.diagnostic ? 1 : 0);
  }

  u64(spec.Mappings().size());
  for (const MappingOption& m : spec.Mappings()) {
    u64(m.task);
    u64(m.resource);
  }
  return h;
}

BistAugmentation AugmentWithBist(
    Specification& spec,
    const std::map<ResourceId, std::vector<bist::BistProfile>>& profiles,
    const std::map<ResourceId, std::uint32_t>& cut_types) {
  ApplicationGraph& app = spec.Application();
  ArchitectureGraph& arch = spec.Architecture();
  const ResourceId gateway = arch.Gateway();

  BistAugmentation augmentation;
  Task collect;
  collect.name = "b_R";
  collect.kind = TaskKind::BistCollect;
  augmentation.collect_task = app.AddTask(collect);
  spec.AddMapping(augmentation.collect_task, gateway);

  for (const auto& [ecu, profile_set] : profiles) {
    if (ecu >= arch.ResourceCount() ||
        arch.GetResource(ecu).kind != ResourceKind::Ecu) {
      throw std::invalid_argument("BIST profiles attached to a non-ECU");
    }
    auto& programs = augmentation.programs_by_ecu[ecu];
    const std::string ecu_name = arch.GetResource(ecu).name;

    for (std::uint32_t p = 0; p < profile_set.size(); ++p) {
      const bist::BistProfile& profile = profile_set[p];
      BistProgram program;
      program.profile_index = p;
      if (auto it = cut_types.find(ecu); it != cut_types.end()) {
        program.cut_type = it->second;
      }

      Task test;
      test.name = "b_T[" + ecu_name + "," + std::to_string(p + 1) + "]";
      test.kind = TaskKind::BistTest;
      test.target_ecu = ecu;
      test.profile_index = p;
      test.fault_coverage_percent = profile.fault_coverage_percent;
      test.transition_coverage_percent = profile.transition_coverage_percent;
      test.runtime_ms = profile.runtime_ms;
      program.test_task = app.AddTask(test);
      spec.AddMapping(program.test_task, ecu);  // BIST runs on its own CUT

      Task data;
      data.name = "b_D[" + ecu_name + "," + std::to_string(p + 1) + "]";
      data.kind = TaskKind::BistData;
      data.target_ecu = ecu;
      data.profile_index = p;
      data.data_bytes = profile.data_bytes;
      program.data_task = app.AddTask(data);
      spec.AddMapping(program.data_task, ecu);      // local pattern memory
      spec.AddMapping(program.data_task, gateway);  // central pattern memory

      Message pattern_msg;
      pattern_msg.name = "c_D[" + ecu_name + "," + std::to_string(p + 1) + "]";
      pattern_msg.sender = program.data_task;
      pattern_msg.receivers = {program.test_task};
      pattern_msg.payload_bytes = 8;  // mirrored frames: up to full payload
      pattern_msg.period_ms = 10.0;
      pattern_msg.diagnostic = true;
      program.pattern_message = app.AddMessage(pattern_msg);

      Message fail_msg;
      fail_msg.name = "c_R[" + ecu_name + "," + std::to_string(p + 1) + "]";
      fail_msg.sender = program.test_task;
      fail_msg.receivers = {augmentation.collect_task};
      fail_msg.payload_bytes = 8;
      fail_msg.period_ms = 10.0;
      fail_msg.diagnostic = true;
      program.fail_message = app.AddMessage(fail_msg);

      programs.push_back(program);
    }
  }
  return augmentation;
}

}  // namespace bistdse::model
