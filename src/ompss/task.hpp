// task.hpp — task objects and per-parent task contexts.
//
// A `Task` is a deferred function call plus the access list declared at spawn
// time.  Tasks move through Created → Ready → Running → Finished.
//
// Dependency bookkeeping is designed for *concurrent* spawn and finish
// (docs/dependencies.md): `preds` is an atomic count of unfinished
// predecessors, the successor list is guarded by a per-task mutex, and the
// finish side (`finish_take_successors`) linearizes against edge insertion
// (`add_successor_edge`) through that mutex — a producer either accepts the
// edge before retiring or the consumer sees it already finished and skips
// the edge.  No runtime-wide lock is involved.
//
// Lifetime is an intrusive refcount (`TaskPtr`), not std::shared_ptr: the
// final release of a pooled task routes through oss::pool::recycle instead
// of the allocator, which is what makes a steady-state spawn→execute→retire
// cycle allocation-free (docs/memory.md).  The decrement uses acq_rel, so
// whichever thread performs the final release observes every prior
// release's writes before recycling or deleting the task.
//
// Every task that spawns children owns a `TaskContext`: it counts live direct
// children (what `taskwait` waits on), holds the dependency domain in which
// the children's accesses are matched against each other, and stores the
// first exception thrown by any child (rethrown at the next `taskwait`).
// The runtime owns a root context for tasks spawned outside any task.
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "ompss/access.hpp"
#include "ompss/small_fn.hpp"
#include "ompss/task_pool.hpp"

namespace oss {

class Task;
class DepDomain;

/// Intrusive smart pointer over Task's embedded refcount.  Drop-in for the
/// former std::shared_ptr<Task> uses (copy/move/reset/get/use_count), minus
/// the separately-allocated control block — the count lives in the Task, so
/// creating the first handle costs nothing.
class TaskPtr {
 public:
  TaskPtr() noexcept = default;
  TaskPtr(std::nullptr_t) noexcept {}

  TaskPtr(const TaskPtr& o) noexcept : p_(o.p_) {
    if (p_) retain(p_);
  }
  TaskPtr(TaskPtr&& o) noexcept : p_(o.p_) { o.p_ = nullptr; }

  TaskPtr& operator=(const TaskPtr& o) noexcept {
    TaskPtr tmp(o);
    swap(tmp);
    return *this;
  }
  TaskPtr& operator=(TaskPtr&& o) noexcept {
    TaskPtr tmp(std::move(o));
    swap(tmp);
    return *this;
  }
  TaskPtr& operator=(std::nullptr_t) noexcept {
    reset();
    return *this;
  }

  ~TaskPtr() {
    if (p_) release(p_);
  }

  /// Wraps a task whose refcount is already set for this handle (fresh
  /// allocation or pool::acquire + prepare).  Does not retain.
  static TaskPtr adopt(Task* t) noexcept {
    TaskPtr p;
    p.p_ = t;
    return p;
  }

  void reset() noexcept {
    if (p_) {
      release(p_);
      p_ = nullptr;
    }
  }

  void swap(TaskPtr& o) noexcept { std::swap(p_, o.p_); }

  Task* get() const noexcept { return p_; }
  Task* operator->() const noexcept { return p_; }
  Task& operator*() const noexcept { return *p_; }
  explicit operator bool() const noexcept { return p_ != nullptr; }

  /// Current refcount (approximate under concurrency, like shared_ptr).
  long use_count() const noexcept;

  friend bool operator==(const TaskPtr& a, const TaskPtr& b) noexcept {
    return a.p_ == b.p_;
  }
  friend bool operator==(const TaskPtr& a, std::nullptr_t) noexcept {
    return a.p_ == nullptr;
  }

 private:
  static void retain(Task* t) noexcept;
  static void release(Task* t) noexcept;

  Task* p_ = nullptr;
};

/// Lifecycle states of a task.
enum class TaskState : std::uint8_t {
  Created, ///< spawned, dependency registration in progress or unmet deps
  Ready,   ///< all predecessors finished; sitting in a ready queue
  Running, ///< executing on some worker
  Finished ///< body returned (or threw); successors may proceed
};

const char* to_string(TaskState s) noexcept;

/// Fixed-size top-K label attribution of a critical path (oss::prof): which
/// task labels contribute how many raw clock ticks along the heaviest
/// predecessor chain ending at some task.  Carried by value per task — the
/// winning predecessor's attribution is copied forward at its finish, the
/// task's own execution added — so the span's composition is known at any
/// barrier without keeping retired tasks alive or walking a graph.
struct PathAttr {
  static constexpr std::size_t kTop = 4;
  std::uint32_t label[kTop] = {0, 0, 0, 0}; ///< interned label hashes
  std::uint64_t ticks[kTop] = {0, 0, 0, 0}; ///< 0 = slot empty

  /// Adds `t` ticks to `lab`'s entry: merges into a matching slot, claims an
  /// empty one, or evicts the smallest entry when `t` beats it.  Top-K with
  /// eviction, not exact — good enough to name the dominant span labels.
  void add(std::uint32_t lab, std::uint64_t t) noexcept {
    std::size_t min_i = 0;
    for (std::size_t i = 0; i < kTop; ++i) {
      if (ticks[i] != 0 && label[i] == lab) {
        ticks[i] += t;
        return;
      }
      if (ticks[i] == 0) {
        label[i] = lab;
        ticks[i] = t;
        return;
      }
      if (ticks[i] < ticks[min_i]) min_i = i;
    }
    if (t > ticks[min_i]) {
      label[min_i] = lab;
      ticks[min_i] = t;
    }
  }
};

/// Shared bookkeeping for the children of one parent (a task or the root).
class TaskContext {
 public:
  /// `dep_shards` sizes the context's dependency domain (power of two;
  /// RuntimeConfig::dep_shards).  Child contexts inherit their parent's
  /// count — see Task::child_context.  `pooled` selects the per-shard
  /// node pools for the domain's interval maps (RuntimeConfig::pool).
  explicit TaskContext(std::size_t dep_shards = 1,
                       bool pooled = pool::enabled_by_default());
  ~TaskContext();

  TaskContext(const TaskContext&) = delete;
  TaskContext& operator=(const TaskContext&) = delete;

  /// Direct children spawned into this context that have not yet finished.
  /// Incremented by the spawner and decremented by every retiring worker,
  /// so it gets a cache line of its own: off the std::make_shared control
  /// block (whose refcount sits just before the object) and off the
  /// read-mostly fields below.
  alignas(64) std::atomic<std::size_t> live_children{0};

  /// Dependency domain for sibling tasks of this context.  Internally
  /// sharded and locked; callers need no external synchronization.
  DepDomain& domain() noexcept { return *domain_; }
  const DepDomain& domain() const noexcept { return *domain_; }

  /// Shard count of this context's domain (inherited by child contexts).
  [[nodiscard]] std::size_t dep_shards() const noexcept { return dep_shards_; }

  /// Whether this context's domain uses pooled map nodes (inherited).
  [[nodiscard]] bool pooled() const noexcept { return pooled_; }

  /// Records the first exception escaping a child task.  Thread-safe.
  void note_exception(std::exception_ptr ep);

  /// Removes and returns the stored exception (null if none).  Thread-safe.
  std::exception_ptr take_exception();

  /// True if an exception is waiting to be rethrown.
  bool has_exception() const;

 private:
  alignas(64) std::unique_ptr<DepDomain> domain_;
  std::size_t dep_shards_;
  bool pooled_;
  mutable std::mutex mu_;
  std::exception_ptr first_exception_;
};

using ContextPtr = std::shared_ptr<TaskContext>;

/// A spawned task.
class Task {
 public:
  using Fn = SmallFn;

  Task(std::uint64_t id, Fn fn, AccessList accesses, ContextPtr parent_ctx,
       std::string label);

  /// Dormant task for the pool: no id, no body, refcount 1.  Must be
  /// prepare()d before use.  Only oss::pool constructs these.
  Task() = default;
  ~Task();

  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;

  // ---- pooled lifecycle -----------------------------------------------

  /// (Re)initializes a dormant task for a new spawn.  Every field a spawn
  /// sets is reset here; containers keep their capacity from the previous
  /// life — that retained capacity is the pool's whole point.
  void prepare(std::uint64_t id, Fn fn, ContextPtr parent_ctx,
               std::string label) {
    id_ = id;
    fn_ = std::move(fn);
    parent_ctx_ = std::move(parent_ctx);
    label_ = std::move(label);
    priority_ = 0;
    trace_label_ = 0;
    home_node_.store(-1, std::memory_order_relaxed);
    inherited_node_.store(-1, std::memory_order_relaxed);
    home_soft_.store(false, std::memory_order_relaxed);
    undeferred_ = false;
    spawn_ts_ = 0;
    ready_ts_ = 0;
    pred_path_ticks_ = 0;
    crit_pred_ = 0;
    pred_attr_ = PathAttr{};
    path_ticks_.store(0, std::memory_order_relaxed);
    finished_.store(false, std::memory_order_relaxed);
    state_.store(TaskState::Created, std::memory_order_relaxed);
    preds.store(0, std::memory_order_relaxed);
    refs_.store(1, std::memory_order_relaxed);
  }

  /// Copies the access list into the task's recycled storage.
  void set_accesses(const Access* p, std::size_t n) {
    accesses_.assign(p, p + n);
  }

  /// Drops every owning/heavy member before the task re-enters the pool.
  /// Containers are cleared, not destroyed, so their buffers survive into
  /// the next life.  Called with refcount 0 (no handle can observe it).
  void recycle_clear() noexcept {
    fn_.reset();
    accesses_.clear();
    parent_ctx_.reset();
    child_ctx_.reset();
    label_.clear();
    exclusion_locks_.clear();
    queue_ref_.reset();
    successors.clear();
  }

  /// Sets the refcount of a task no other thread can reach yet, so its
  /// holders-to-be adopt their references instead of each retaining one
  /// (replay pre-wiring: 1 + wired in-degree).
  void preset_refs(std::uint32_t n) noexcept {
    refs_.store(n, std::memory_order_relaxed);
  }

  void retain() noexcept { refs_.fetch_add(1, std::memory_order_relaxed); }
  void release() noexcept {
    if (refs_.fetch_sub(1, std::memory_order_acq_rel) == 1) destroy_or_recycle();
  }
  long refcount() const noexcept {
    return static_cast<long>(refs_.load(std::memory_order_relaxed));
  }

  /// True for pool-owned tasks (final release recycles instead of deletes).
  bool pooled() const noexcept { return pooled_; }
  void mark_pooled() noexcept { pooled_ = true; }

  /// Pool-internal freelist link; owned by oss::pool while the task is
  /// dormant, dead storage while it is live.
  Task* pool_next = nullptr;

  // ---------------------------------------------------------------------

  std::uint64_t id() const noexcept { return id_; }
  const std::string& label() const noexcept { return label_; }
  const AccessList& accesses() const noexcept { return accesses_; }

  /// Context the task was spawned into (its siblings' dependency domain).
  const ContextPtr& parent_context() const noexcept { return parent_ctx_; }

  /// Lazily creates the context for this task's own children.
  /// Called only from the thread currently executing this task.
  const ContextPtr& child_context();

  /// Child context if one was ever created (may be null).
  const ContextPtr& child_context_if_any() const noexcept { return child_ctx_; }

  /// Runs the task body (does not catch exceptions).
  void run() { fn_(); }

  /// Drops the body closure.  Called by the runtime once the body returned:
  /// TaskHandles keep the Task object alive arbitrarily long, and the
  /// closure may hold large captures that should not live that long.
  /// Only the executing thread may call this.
  void release_body() noexcept;

  /// Atomic completion flag; set (release) after the body returns and
  /// before successors are notified.
  bool finished() const noexcept { return finished_.load(std::memory_order_acquire); }
  void mark_finished() noexcept { finished_.store(true, std::memory_order_release); }

  TaskState state() const noexcept { return state_.load(std::memory_order_acquire); }
  void set_state(TaskState s) noexcept { state_.store(s, std::memory_order_release); }

  /// Scheduling priority (higher runs earlier; 0 = normal).
  int priority() const noexcept { return priority_; }
  void set_priority(int p) noexcept { priority_ = p; }

  /// Interned trace-label hash (TraceSystem::intern), set once at spawn
  /// when tracing is on so the execution path never hashes the label.
  std::uint32_t trace_label() const noexcept { return trace_label_; }
  void set_trace_label(std::uint32_t h) noexcept { trace_label_ = h; }

  /// Undeferred (`if(0)`) task: the spawning thread executes it inline once
  /// its dependencies resolve; it is never enqueued.
  bool undeferred() const noexcept { return undeferred_; }
  void set_undeferred(bool v) noexcept { undeferred_ = v; }

  /// NUMA home node (dense topology index) the scheduler should place this
  /// task on, or -1 for no affinity.  Set before the task is published to
  /// any ready queue (the queue handshake orders it for readers).  `soft`
  /// marks a runtime-derived home (affinity_auto / chain inheritance) the
  /// scheduler may widen under queue pressure; explicit `.affinity(node)`
  /// hints are hard and never widened.
  ///
  /// Relaxed atomics: the spawner writes the home while other spawners may
  /// concurrently read it for chain inheritance (they discovered an edge
  /// from this task in a dependency shard this task no longer holds).  The
  /// home is a *hint* — a torn decision is impossible (single word) and a
  /// stale read costs at most one inheritance vote.
  int home_node() const noexcept {
    return home_node_.load(std::memory_order_relaxed);
  }
  void set_home_node(int n, bool soft = false) noexcept {
    home_node_.store(n, std::memory_order_relaxed);
    home_soft_.store(soft, std::memory_order_relaxed);
  }
  bool home_soft() const noexcept {
    return home_soft_.load(std::memory_order_relaxed);
  }

  /// Chain affinity inheritance: the home node that won the max-bytes vote
  /// over this task's dependency predecessors, recorded while the task's
  /// edges are discovered (dep_domain) and consulted at spawn-time home
  /// resolution when the task carries no hint of its own.  -1 = nothing to
  /// inherit.  Written only by the spawning thread during registration;
  /// atomic because diagnostics may read it from other threads.
  int inherited_node() const noexcept {
    return inherited_node_.load(std::memory_order_relaxed);
  }
  void set_inherited_node(int n) noexcept {
    inherited_node_.store(n, std::memory_order_relaxed);
  }

  /// Attaches a commutative-region exclusion lock (called only by the
  /// spawning thread during registration, under the region's shard lock;
  /// published to the executing worker by the ready-queue handshake).
  void add_exclusion_lock(std::shared_ptr<std::mutex> m) {
    exclusion_locks_.push_back(std::move(m));
  }

  /// Locks the task must hold while executing (commutative regions).
  const std::vector<std::shared_ptr<std::mutex>>& exclusion_locks() const noexcept {
    return exclusion_locks_;
  }

  // ---- profiling / critical-path bookkeeping (oss::prof) ---------------
  // All timestamps are raw TraceSystem::clock() ticks, converted to ns only
  // at snapshot time.  The plain (non-atomic) fields ride existing
  // happens-before edges: spawn_ts is written by the spawner before the
  // spawn-guard release; ready_ts by whichever thread zeroes `preds`,
  // before the queue publish (or state release) the executor acquires; the
  // pred-path fields are written under `succ_mu_` by finishing producers
  // and read plainly by the consumer only at its own retirement — by then
  // every producer's offer happened-before the consumer's readiness.
  // When the runtime's timing gate is off, none of this is ever touched.

  std::uint64_t spawn_ts() const noexcept { return spawn_ts_; }
  void set_spawn_ts(std::uint64_t t) noexcept { spawn_ts_ = t; }
  std::uint64_t ready_ts() const noexcept { return ready_ts_; }
  void set_ready_ts(std::uint64_t t) noexcept { ready_ts_ = t; }

  /// Producer-side critical-path offer: each finishing predecessor calls
  /// this (before decrementing `preds`) with its own completed path length
  /// and attribution; the heaviest offer wins.  `succ_mu_` serializes
  /// concurrent producers.
  void offer_pred_path(std::uint64_t path_ticks, std::uint64_t pred_id,
                       const PathAttr& attr) {
    std::lock_guard lock(succ_mu_);
    if (path_ticks > pred_path_ticks_) {
      pred_path_ticks_ = path_ticks;
      crit_pred_ = pred_id;
      pred_attr_ = attr;
    }
  }
  std::uint64_t pred_path_ticks() const noexcept { return pred_path_ticks_; }
  /// Id of the predecessor whose path won (0 = none) — the back-pointer the
  /// graph recorder walks to color the critical chain.
  std::uint64_t crit_pred() const noexcept { return crit_pred_; }
  const PathAttr& pred_attr() const noexcept { return pred_attr_; }

  /// Completed path length in ticks (max over predecessors + own exec),
  /// stored at retirement; read by diagnostics and the graph recorder.
  std::uint64_t path_ticks() const noexcept {
    return path_ticks_.load(std::memory_order_relaxed);
  }
  void set_path_ticks(std::uint64_t t) noexcept {
    path_ticks_.store(t, std::memory_order_relaxed);
  }

  // ---- lock-free ready-queue anchor -----------------------------------
  // The lock-free queues (chase_lev.hpp, mpmc_queue.hpp) store tasks as raw
  // `Task*`; the queue's owning reference parks in this slot while the task
  // is enqueued.  The enqueuer writes it before the queue publishes the
  // pointer and the single dequeuer that wins the element takes it back —
  // the queue's release/acquire (or CAS) handshake orders the two, and a
  // ready task sits in at most one queue, so one slot suffices.

  void anchor_queue_ref(TaskPtr self) noexcept {
    queue_ref_ = std::move(self);
  }

  [[nodiscard]] TaskPtr take_queue_ref() noexcept {
    return std::move(queue_ref_);
  }

  // ---- concurrent spawn/finish protocol -------------------------------
  //
  // Edges materialize from several dependency shards (and several spawning
  // threads' registrations) concurrently with producers finishing, so the
  // per-task bookkeeping carries its own synchronization:
  //
  //   * `preds` counts unfinished predecessors, plus one *spawn guard* the
  //     runtime holds while the consumer's own registration is in flight
  //     (so a burst of concurrent finishes cannot publish a half-registered
  //     task).  The release half of the protocol is the finisher's
  //     fetch_sub; the acquire half is whoever brings it to zero.
  //   * the successor list is guarded by `succ_mu_`; `add_successor_edge`
  //     (producer side of edge insertion) and `finish_take_successors`
  //     (retirement) linearize through it.

  /// Unfinished predecessors (+1 while the spawn guard is held); the task
  /// becomes ready when this hits zero.
  std::atomic<int> preds{0};

  /// Tasks whose `preds` must be decremented when this task finishes.
  /// Guarded by succ_mu_; test-only direct reads require quiescence.
  std::vector<TaskPtr> successors;

  /// Producer side of edge insertion: unless this task already finished,
  /// atomically increments `consumer->preds` and appends the consumer to
  /// the successor list.  Returns false when this task already retired (no
  /// edge needed — its effects are visible).  The consumer must still be
  /// guarded (unpublished) so the increment cannot race its readiness.
  ///
  /// A retired producer is rejected before `succ_mu_` is taken: `finished_`
  /// only ever goes false→true, under that mutex, so an acquire read of
  /// true is final and already orders the producer's effects before the
  /// consumer (docs/dependencies.md).  Most producers a spawner meets have
  /// retired, and their mutex line was last written by the worker that
  /// retired them.
  bool add_successor_edge(const TaskPtr& consumer) {
    if (finished()) return false;
    std::lock_guard lock(succ_mu_);
    if (finished()) return false;
    consumer->preds.fetch_add(1, std::memory_order_relaxed);
    successors.push_back(consumer);
    return true;
  }

  /// Retirement: marks the task finished and drains the successor list into
  /// `out`, as one atomic step against add_successor_edge — a concurrent
  /// edge either lands in `out` or observes `finished` and is skipped.
  /// `out` is appended to (callers pass a cleared scratch vector); the
  /// task's own list keeps its capacity for the next life.
  void finish_take_successors(std::vector<TaskPtr>& out) {
    std::lock_guard lock(succ_mu_);
    mark_finished();
    for (auto& s : successors) out.push_back(std::move(s));
    successors.clear();
  }

 private:
  /// Final-release path: pooled tasks go back to the freelist, plain tasks
  /// are deleted.  Out of line — task.cpp knows the pool.
  void destroy_or_recycle() noexcept;

  std::mutex succ_mu_; ///< guards `successors` and orders it vs `finished_`
  std::uint64_t id_ = 0;
  Fn fn_;
  AccessList accesses_;
  ContextPtr parent_ctx_;
  ContextPtr child_ctx_; // lazily created; touched only by the executing thread
  std::string label_;
  int priority_ = 0;
  std::uint32_t trace_label_ = 0;
  std::atomic<int> home_node_{-1};
  std::atomic<int> inherited_node_{-1};
  std::atomic<bool> home_soft_{false};
  bool undeferred_ = false;
  bool pooled_ = false;
  std::uint64_t spawn_ts_ = 0;      ///< raw ticks at spawn (prof on only)
  std::uint64_t ready_ts_ = 0;      ///< raw ticks when preds hit zero
  std::uint64_t pred_path_ticks_ = 0; ///< heaviest predecessor path (succ_mu_)
  std::uint64_t crit_pred_ = 0;       ///< id of the winning predecessor
  PathAttr pred_attr_;                ///< its label attribution (succ_mu_)
  std::atomic<std::uint64_t> path_ticks_{0}; ///< own completed path length
  std::vector<std::shared_ptr<std::mutex>> exclusion_locks_;
  TaskPtr queue_ref_; // owning self-reference while in a lock-free queue
  std::atomic<bool> finished_{false};
  std::atomic<TaskState> state_{TaskState::Created};
  std::atomic<std::uint32_t> refs_{1};
};

inline void TaskPtr::retain(Task* t) noexcept { t->retain(); }
inline void TaskPtr::release(Task* t) noexcept { t->release(); }
inline long TaskPtr::use_count() const noexcept {
  return p_ ? p_->refcount() : 0;
}

/// Builds a fresh (non-pooled) task and wraps it — the test/bench-facing
/// replacement for the former std::make_shared<Task>(...).
inline TaskPtr make_task(std::uint64_t id, Task::Fn fn, AccessList accesses,
                         ContextPtr parent_ctx, std::string label) {
  return TaskPtr::adopt(new Task(id, std::move(fn), std::move(accesses),
                                 std::move(parent_ctx), std::move(label)));
}

} // namespace oss
