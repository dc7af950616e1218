// Bipartite application graph g_T = (T u C, E_T): tasks exchange data via
// explicit message vertices.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "model/types.hpp"

namespace bistdse::model {

struct Task {
  std::string name;
  TaskKind kind = TaskKind::Functional;

  // BIST-specific attributes (meaningful for BistTest/BistData):
  ResourceId target_ecu = kInvalidId;  ///< The ECU whose CUT this task tests.
  std::uint32_t profile_index = 0;     ///< Index into the ECU's profile set.
  double fault_coverage_percent = 0.0; ///< c(b) for BistTest.
  double transition_coverage_percent = 0.0;  ///< Optional TDF metric.
  double runtime_ms = 0.0;             ///< l(b) for BistTest.
  std::uint64_t data_bytes = 0;        ///< s(b) for BistData (pattern memory).
};

struct Message {
  std::string name;
  TaskId sender = kInvalidId;
  std::vector<TaskId> receivers;
  std::uint32_t payload_bytes = 8;  ///< Per-frame payload on a field bus.
  double period_ms = 10.0;
  bool diagnostic = false;  ///< c^D / c^R messages of the BIST augmentation.
};

class ApplicationGraph {
 public:
  TaskId AddTask(Task task);
  MessageId AddMessage(Message message);

  std::size_t TaskCount() const { return tasks_.size(); }
  std::size_t MessageCount() const { return messages_.size(); }
  const Task& GetTask(TaskId id) const { return tasks_[id]; }
  Task& GetTask(TaskId id) { return tasks_[id]; }
  const Message& GetMessage(MessageId id) const { return messages_[id]; }

  /// Messages sent by / received by a task.
  std::span<const MessageId> Outgoing(TaskId id) const { return outgoing_[id]; }
  std::span<const MessageId> Incoming(TaskId id) const { return incoming_[id]; }

  /// Mandatory = functional or collection task (must be bound).
  bool IsMandatory(TaskId id) const { return !IsDiagnosis(tasks_[id].kind); }

 private:
  std::vector<Task> tasks_;
  std::vector<Message> messages_;
  std::vector<std::vector<MessageId>> outgoing_;
  std::vector<std::vector<MessageId>> incoming_;
};

}  // namespace bistdse::model
