#include "ompss/task.hpp"

#include <utility>

#include "ompss/dep_domain.hpp"
#include "ompss/task_pool.hpp"

namespace oss {

const char* to_string(TaskState s) noexcept {
  switch (s) {
    case TaskState::Created: return "created";
    case TaskState::Ready: return "ready";
    case TaskState::Running: return "running";
    case TaskState::Finished: return "finished";
  }
  return "?";
}

TaskContext::TaskContext(std::size_t dep_shards)
    : domain_(std::make_unique<DepDomain>(dep_shards)),
      dep_shards_(dep_shards) {}

TaskContext::~TaskContext() = default;

void TaskContext::quiesce(bool closing) {
  domain_->quiesce([this] { return live_children() == 0; }, !closing);
}

void TaskContext::note_exception(std::exception_ptr ep) {
  std::lock_guard lock(mu_);
  if (!first_exception_) first_exception_ = std::move(ep);
}

std::exception_ptr TaskContext::take_exception() {
  std::lock_guard lock(mu_);
  return std::exchange(first_exception_, nullptr);
}

bool TaskContext::has_exception() const {
  std::lock_guard lock(mu_);
  return static_cast<bool>(first_exception_);
}

Task::Task(std::uint64_t id, Fn fn, AccessList accesses, ContextPtr parent_ctx,
           std::string label)
    : id_(id),
      fn_(std::move(fn)),
      accesses_(std::move(accesses)),
      parent_ctx_(std::move(parent_ctx)),
      label_(std::move(label)) {}

Task::~Task() = default;

void Task::destroy_or_recycle() noexcept {
  if (pooled_) {
    pool::recycle(this);
  } else {
    delete this;
  }
}

void Task::release_body() noexcept { fn_ = nullptr; }

const ContextPtr& Task::child_context() {
  // Children inherit the parent context's dependency-shard count, so one
  // RuntimeConfig setting propagates down the task tree.
  if (!child_ctx_) {
    child_ctx_ = std::make_shared<TaskContext>(parent_ctx_->dep_shards());
  }
  return child_ctx_;
}

} // namespace oss
