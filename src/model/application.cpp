#include "model/application.hpp"

#include <stdexcept>

namespace bistdse::model {

TaskId ApplicationGraph::AddTask(Task task) {
  const auto id = static_cast<TaskId>(tasks_.size());
  tasks_.push_back(std::move(task));
  outgoing_.emplace_back();
  incoming_.emplace_back();
  return id;
}

MessageId ApplicationGraph::AddMessage(Message message) {
  if (message.sender >= tasks_.size())
    throw std::invalid_argument("message sender out of range");
  if (message.receivers.empty())
    throw std::invalid_argument("message needs at least one receiver");
  for (TaskId r : message.receivers) {
    if (r >= tasks_.size())
      throw std::invalid_argument("message receiver out of range");
    if (r == message.sender)
      throw std::invalid_argument("message sender cannot receive itself");
  }
  const auto id = static_cast<MessageId>(messages_.size());
  outgoing_[message.sender].push_back(id);
  for (TaskId r : message.receivers) incoming_[r].push_back(id);
  messages_.push_back(std::move(message));
  return id;
}

}  // namespace bistdse::model
