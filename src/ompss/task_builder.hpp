// task_builder.hpp — the fluent task-declaration API.
//
// This is the library spelling of an OmpSs `#pragma omp task` annotation.
// Each pragma clause maps onto one chainable method:
//
//   pragma clause            builder method
//   ----------------------   -------------------------------------------
//   input(x) / input(p[n])   .in(x)          / .in(p, n)
//   output(x)                .out(x)         / .out(p, n)
//   inout(x)                 .inout(x)       / .inout(p, n)
//   commutative(x)           .commutative(x) / .commutative(p, n)
//   concurrent(x)            .concurrent(x)  / .concurrent(p, n)
//   priority(n)              .priority(n)
//   if(0)                    .undeferred()
//   (no pragma equivalent)   .after(handle...)   explicit graph edge
//
// and `.spawn(fn)` finalizes the declaration, returning a `TaskHandle`:
//
//   oss::TaskHandle h = rt.task("stage")
//                         .in(src).out(dst)
//                         .spawn([&] { dst = f(src); });
//   h.wait();
//
// A builder describes exactly one task: `spawn` consumes it.  Builders are
// cheap (one pointer + the accumulated TaskSpec) and may be held as lvalues
// to add accesses conditionally before spawning.
//
// `TaskGroup` scopes tasks the way a nested task scopes its children:
// tasks spawned through the group land in a private child context, and the
// group's destructor taskwaits on exactly those tasks, rethrowing the first
// exception a child threw.  Use it to bound a parallel phase without a
// runtime-wide barrier:
//
//   {
//     oss::TaskGroup g(rt);
//     for (auto& b : blocks) g.task("block").inout(b).spawn([&] { ... });
//   } // joins here; child exceptions propagate
//
// CAUTION — a group is a private dependency domain: like the children of a
// nested task, group tasks match their declared accesses only against each
// other, never against ambient tasks spawned outside the group.  An
// `.in(x)` on a group task will NOT order it after an ambient task that
// writes `x`.  To order across the boundary, pass the ambient task's
// handle via `.after(handle)`, or taskwait before opening the group.
#pragma once

#include <exception>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>

#include "ompss/access.hpp"
#include "ompss/runtime.hpp"
#include "ompss/task_handle.hpp"

namespace oss {

class TaskBuilder {
 public:
  TaskBuilder(TaskBuilder&&) = default;
  TaskBuilder& operator=(TaskBuilder&&) = default;
  TaskBuilder(const TaskBuilder&) = delete;
  TaskBuilder& operator=(const TaskBuilder&) = delete;

  /// Declares a read access (OmpSs `input`).  Accepts the same forms as
  /// `oss::in`: an object, (pointer, count), or a span.
  template <class... A>
  TaskBuilder& in(A&&... a) {
    check_access_args<A...>();
    spec_.accesses.push_back(oss::in(std::forward<A>(a)...));
    return *this;
  }

  /// Declares a write access (OmpSs `output`).
  template <class... A>
  TaskBuilder& out(A&&... a) {
    check_access_args<A...>();
    spec_.accesses.push_back(oss::out(std::forward<A>(a)...));
    return *this;
  }

  /// Declares a read-modify-write access (OmpSs `inout`).
  template <class... A>
  TaskBuilder& inout(A&&... a) {
    check_access_args<A...>();
    spec_.accesses.push_back(oss::inout(std::forward<A>(a)...));
    return *this;
  }

  /// Declares a commutative access: any order, never concurrently.
  template <class... A>
  TaskBuilder& commutative(A&&... a) {
    check_access_args<A...>();
    spec_.accesses.push_back(oss::commutative(std::forward<A>(a)...));
    return *this;
  }

  /// Declares a concurrent access: any order, simultaneously; the task
  /// body synchronizes its own updates.
  template <class... A>
  TaskBuilder& concurrent(A&&... a) {
    check_access_args<A...>();
    spec_.accesses.push_back(oss::concurrent(std::forward<A>(a)...));
    return *this;
  }

  /// Appends a pre-built access descriptor (for computed regions).
  TaskBuilder& access(Access a) {
    spec_.accesses.push_back(a);
    return *this;
  }

  /// Appends a whole pre-built access list.
  TaskBuilder& accesses(const AccessList& list) {
    for (const Access& a : list) spec_.accesses.push_back(a);
    return *this;
  }

  /// Move form: adopts the list wholesale when nothing was declared yet.
  TaskBuilder& accesses(AccessList&& list) {
    spec_.accesses.adopt(std::move(list));
    return *this;
  }

  /// OmpSs `priority` clause: tasks with higher priority run before normal
  /// ready tasks.
  TaskBuilder& priority(int p) {
    spec_.priority = p;
    return *this;
  }

  /// OmpSs `if(0)`: the spawning thread waits for the task's dependencies
  /// (helping with other work meanwhile) and runs the body inline.
  TaskBuilder& undeferred() {
    spec_.deferred = false;
    return *this;
  }

  /// NUMA affinity hint: prefer running the task on a worker of memory node
  /// `node` (dense topology index, see docs/numa.md).  A node the current
  /// topology does not have is ignored at spawn time — code written for a
  /// multi-socket box runs unchanged on a laptop.  Negative nodes throw.
  TaskBuilder& affinity(int node) {
    if (node < 0) {
      throw std::invalid_argument(
          "oss::TaskBuilder::affinity: node must be >= 0");
    }
    spec_.affinity = node;
    spec_.affinity_auto = false;
    return *this;
  }

  /// Derives the affinity hint from the task's data: the home node is the
  /// node of the largest declared access region that was allocated through
  /// oss::numa_alloc_onnode / NumaBuffer (unregistered regions contribute
  /// nothing; no registered region means no affinity).
  TaskBuilder& affinity_auto() {
    spec_.affinity = -1;
    spec_.affinity_auto = true;
    return *this;
  }

  /// Adds an explicit dependency edge: this task will not start before the
  /// task referenced by `h` finished, regardless of declared regions.
  /// A finished handle adds no edge but still donates its home node to
  /// chain inheritance, as a retired region producer does.  Empty handles
  /// and finished handles of another runtime are no-ops; an unfinished
  /// handle of a different runtime throws std::invalid_argument.
  TaskBuilder& after(const TaskHandle& h) {
    if (!h.valid()) return *this;
    if (h.runtime() != rt_) {
      if (h.done()) return *this;
      throw std::invalid_argument(
          "oss::TaskBuilder::after: handle belongs to a different runtime");
    }
    spec_.after.push_back(h.task());
    return *this;
  }

  /// Variadic form: `.after(h1, h2, h3)`.
  template <class... H>
    requires(sizeof...(H) > 1)
  TaskBuilder& after(const H&... hs) {
    (after(static_cast<const TaskHandle&>(hs)), ...);
    return *this;
  }

  /// Finalizes the declaration and spawns the task.  Consumes the builder;
  /// a builder spawns exactly once — a second call throws std::logic_error
  /// (the spec was moved out, so silently spawning again would produce a
  /// dependency-free task).
  TaskHandle spawn(Task::Fn fn) {
    if (spawned_) {
      throw std::logic_error(
          "oss::TaskBuilder::spawn: builder already consumed; declare a "
          "new task with rt.task(...)");
    }
    spawned_ = true;
    return rt_->spawn_task(std::move(spec_), std::move(fn));
  }

 private:
  friend class Runtime;
  friend class TaskGroup;

  TaskBuilder(Runtime& rt, std::string label) : rt_(&rt) {
    spec_.label = std::move(label);
  }

  /// The single-object forms take the argument by reference and track its
  /// object representation — passing a pointer would track the pointer
  /// variable itself, which is almost always a bug.
  template <class... A>
  static constexpr void check_access_args() {
    static_assert(
        !(sizeof...(A) == 1 &&
          (std::is_pointer_v<std::remove_cvref_t<A>> && ...)),
        "single-argument access forms track the object itself; a pointer "
        "argument would track the pointer variable, not the pointee — use "
        "(pointer, count) for arrays or dereference for a single object");
    static_assert(
        !(sizeof...(A) == 1 &&
          (std::is_same_v<std::remove_cvref_t<A>, Access> && ...)),
        "pass pre-built oss::Access descriptors via .access(...) — the "
        "in/out/... methods would track the descriptor object itself");
  }

  Runtime* rt_;
  TaskSpec spec_;
  bool spawned_ = false;
};

inline TaskBuilder Runtime::task(std::string label) {
  return TaskBuilder(*this, std::move(label));
}

/// RAII scope for a set of tasks.  Tasks spawned via `group.task(...)` join
/// a private child context; the destructor (or an explicit `wait()`) blocks
/// until all of them — but no unrelated tasks — finished, then rethrows the
/// first exception any of them threw.  The waiting thread helps execute
/// tasks under the polling policy.
///
/// If the destructor runs during stack unwinding a pending child exception
/// cannot propagate (that would terminate); the group still drains its
/// tasks and the child exception is dropped.
class TaskGroup {
 public:
  explicit TaskGroup(Runtime& rt)
      : rt_(&rt),
        // The group's private domain shards (and pools) like the runtime's
        // contexts do.
        ctx_(std::make_shared<TaskContext>(rt.config().dep_shards,
                                           rt.config().pool)),
        uncaught_on_entry_(std::uncaught_exceptions()) {}

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  ~TaskGroup() noexcept(false) {
    if (std::uncaught_exceptions() > uncaught_on_entry_) {
      try {
        rt_->taskwait_scope(ctx_);
      } catch (...) {
        // Already unwinding: drain, drop the child exception.
      }
    } else {
      rt_->taskwait_scope(ctx_);
    }
  }

  /// Starts a task declaration scoped to this group.
  TaskBuilder task(std::string label = {}) {
    TaskBuilder b(*rt_, std::move(label));
    b.spec_.context = ctx_;
    return b;
  }

  /// Waits for every task spawned through the group so far and rethrows
  /// the first child exception.  The group remains usable afterwards.
  void wait() { rt_->taskwait_scope(ctx_); }

  /// Tasks spawned through the group that have not finished yet.
  [[nodiscard]] std::size_t pending() const noexcept {
    return ctx_->live_children.load(std::memory_order_acquire);
  }

  [[nodiscard]] Runtime& runtime() const noexcept { return *rt_; }

 private:
  Runtime* rt_;
  ContextPtr ctx_;
  int uncaught_on_entry_;
};

} // namespace oss
