// runtime.hpp — the OmpSs-style task-dataflow runtime.
//
// `oss::Runtime` is the library embodiment of the OmpSs execution model the
// paper evaluates:
//
//   * `rt.task("label").in(a).out(b).spawn(fn)` corresponds to calling a
//     function annotated with `#pragma omp task input(...) output(...)`:
//     the call is recorded in a task graph instead of executed, and
//     dependencies are derived at runtime from the declared memory regions.
//     The fluent builder lives in task_builder.hpp; it finalizes into a
//     `TaskHandle` (task_handle.hpp).  The positional
//     `spawn(accesses, fn, opts)` overloads remain as thin shims.
//   * Tasks may be spawned long before their producers finish — this is what
//     makes pipeline parallelism (the paper's H.264 case study) directly
//     expressible.
//   * `taskwait()` waits for the *direct children* of the current context
//     (`#pragma omp taskwait`); `taskwait_on(p)` waits only for previously
//     spawned tasks whose declared regions overlap `p`
//     (`#pragma omp taskwait on(...)`).
//   * `barrier()` waits for *all* tasks in the runtime; with the default
//     polling policy the waiting thread executes tasks while it waits (the
//     paper credits exactly this polling task barrier for the rgbcmy win).
//   * `critical(name, fn)` is `#pragma omp critical(name)` for dependencies
//     deliberately hidden from the task specifications.
//
// Threading model: `num_threads` executor slots.  Slot 0 is the constructing
// thread (worker 0, which executes tasks whenever it waits), slots 1..N-1
// are pool workers.  This mirrors "a static number of cores controlled by
// an environmental variable" — see RuntimeConfig.  While the owning thread
// lends slot 0 (lend_slot0, done by an oss::service::Service built on it),
// a stand-in thread runs slot 0's worker loop instead.
//
// Exceptions thrown by task bodies are captured and rethrown at the parent's
// next `taskwait()` / `barrier()` (first exception wins).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <vector>

#include "ompss/access.hpp"
#include "ompss/config.hpp"
#include "ompss/critical.hpp"
#include "ompss/dep_domain.hpp"
#include "ompss/eventcount.hpp"
#include "ompss/graph_recorder.hpp"
#include "ompss/inline_vec.hpp"
#include "ompss/prof.hpp"
#include "ompss/scheduler.hpp"
#include "ompss/stats.hpp"
#include "ompss/task.hpp"
#include "ompss/task_handle.hpp"
#include "ompss/topology.hpp"
#include "ompss/trace.hpp"

namespace oss {

class TaskBuilder;
class GraphCapture;
class ReplayGraph;

/// Per-spawn options (the OmpSs task clauses beyond the access list).
struct TaskOptions {
  std::string label;  ///< diagnostics name (graph/trace output)
  int priority = 0;   ///< OmpSs `priority` clause: >0 runs before normal tasks
  bool deferred = true; ///< false = OmpSs `if(0)`: the spawning thread waits
                        ///< for the task's dependencies and runs it inline
};

/// Everything a task declares at spawn time.  `TaskBuilder` accumulates one
/// of these; the legacy `spawn()` overloads fill in the subset they expose.
/// The two lists are inline-first (InlineVec): a typical declaration — a
/// handful of accesses, zero-to-few explicit predecessors — never touches
/// the allocator on its way through spawn_task.
struct TaskSpec {
  InlineVec<Access, 8> accesses; ///< declared memory regions (dependency
                                 ///< source); 8 inline covers every task in
                                 ///< src/apps and bench
  std::string label;     ///< diagnostics name (graph/trace output)
  int priority = 0;      ///< OmpSs `priority` clause
  bool deferred = true;  ///< false = OmpSs `if(0)` inline execution
  int affinity = -1;     ///< NUMA home node hint (TaskBuilder::affinity);
                         ///< out-of-range nodes are ignored at spawn
  bool affinity_auto = false; ///< derive the home node from the largest
                              ///< registered access region (numa_alloc)
  ContextPtr context;    ///< spawn into this context instead of the ambient
                         ///< one (used by TaskGroup); null = ambient
  InlineVec<TaskPtr, 4> after; ///< explicit predecessors (TaskBuilder::after)
};

class Runtime {
 public:
  /// Starts `cfg.resolved_threads() - 1` pool workers immediately.
  explicit Runtime(RuntimeConfig cfg = RuntimeConfig{});
  /// Convenience: default config with `threads` total threads.
  explicit Runtime(std::size_t threads)
      : Runtime(RuntimeConfig::with_threads(threads)) {}

  /// Drains all outstanding tasks (barrier), then stops and joins workers.
  ~Runtime();

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  /// Starts a fluent task declaration — the primary spawn API:
  ///
  ///   TaskHandle h = rt.task("stage")
  ///                    .in(a).out(b)
  ///                    .priority(1)
  ///                    .spawn([&] { b = f(a); });
  ///
  /// Defined in task_builder.hpp (included by the ompss.hpp umbrella).
  TaskBuilder task(std::string label = {});

  /// Spawns a task from a fully-populated spec.  `fn` runs once all hazards
  /// against earlier siblings and all `spec.after` predecessors resolved.
  /// This is the single underlying spawn path: `TaskBuilder::spawn` and the
  /// legacy `spawn()` shims both land here.
  ///
  /// May be called from the owning thread, from inside tasks (nested
  /// tasks), or from foreign threads (treated as spawning into the root
  /// context).
  TaskHandle spawn_task(TaskSpec spec, Task::Fn fn);

  /// Legacy positional spawn (shim over `spawn_task`).  `accesses` declares
  /// the regions the task body will touch.  Returns the task id (usable to
  /// correlate graph/trace output); prefer `task(...)` which returns a
  /// first-class TaskHandle.
  std::uint64_t spawn(AccessList accesses, Task::Fn fn, std::string label = {});

  /// Legacy spawn with full task options (shim over `spawn_task`).
  std::uint64_t spawn(AccessList accesses, Task::Fn fn, TaskOptions opts);

  /// Re-submits a captured iteration (oss::replay, docs/replay.md) without
  /// touching any dependency shard: tasks are drawn from the pool with
  /// their predecessor counts pre-stored and successor lists pre-wired
  /// from the graph's CSR arrays, and ready roots are batch-enqueued
  /// through the node-aware wakeup path.  `binder(i)` supplies the body
  /// for task index `i` (capture order) — re-bound on every replay so
  /// buffers/frame data can change between iterations.  Pair with
  /// taskwait()/barrier() like any spawn burst.
  ///
  /// Called on a worker thread (the owning thread included, unless it lent
  /// slot 0 — lend_slot0), replay() is a task scheduling point: unless
  /// Scheduler::keep_unblocked refuses it (fifo, a priority or off-node
  /// root, queued priority work), the first root is run on the calling
  /// thread, with the chain of successors its retirements keep, before
  /// replay() returns.  A graph whose root waits
  /// for something the caller does after replay() returns must therefore
  /// be replayed from a non-worker thread, where replay() only submits.
  ///
  /// Throws std::invalid_argument when `graph` is empty or was captured by
  /// a different runtime (including an earlier, since-destroyed instance —
  /// re-capture after a runtime restart), std::invalid_argument when
  /// `binder` is empty.  An exception from `binder` (or an allocation
  /// failure) during submission is rethrown with nothing submitted and
  /// the runtime's counters unchanged.  Safe to call concurrently from
  /// several threads with disjoint graphs.
  void replay(const ReplayGraph& graph,
              const std::function<Task::Fn(std::size_t)>& binder);

  /// Waits until all *direct children* of the current context finished.
  /// Rethrows the first exception any of them threw.
  void taskwait();

  /// Waits until every previously spawned sibling task whose declared
  /// access regions overlap [p, p+bytes) has finished.  Mirrors
  /// `#pragma omp taskwait on(expr)`.
  void taskwait_on(const void* p, std::size_t bytes = 1);

  template <class T>
  void taskwait_on(const T& obj) {
    static_assert(!std::is_pointer_v<T>,
                  "taskwait_on(ptr) would wait on the sizeof(T*) bytes of the "
                  "pointer object itself; call taskwait_on(ptr, bytes) for a "
                  "region or taskwait_on(*ptr) for the pointee");
    taskwait_on(static_cast<const void*>(&obj), sizeof(T));
  }

  /// Waits until exactly the task referenced by `h` finished (per-task
  /// `taskwait on`).  Empty handles and handles of other runtimes that
  /// already finished return immediately; waiting on another runtime's
  /// unfinished handle is an error (throws std::invalid_argument).
  void taskwait_on(const TaskHandle& h);

  /// Waits until every task spawned into `ctx` finished, then rethrows the
  /// first exception any of them threw.  This is the TaskGroup wait hook;
  /// `taskwait()` is the same operation on the ambient context.
  void taskwait_scope(const ContextPtr& ctx);

  /// Waits until the runtime has no unfinished task at all, then rethrows
  /// any pending root-context exception.  The calling thread helps execute
  /// tasks under the polling policy and sleeps under the blocking policy.
  void barrier();

  /// Runs `fn` holding the named critical-section mutex.
  void critical(std::string_view name, const std::function<void()>& fn);

  /// Executor slots: pool workers 1..N-1 plus slot 0, which is the owning
  /// thread, or the stand-in while slot 0 is lent (lend_slot0).
  [[nodiscard]] std::size_t num_threads() const noexcept { return num_threads_; }

  /// Lends executor slot 0 to a stand-in thread that runs slot 0's worker
  /// loop, so an owning thread that blocks outside the runtime (say, joining
  /// the threads that submit work) leaves no executor idle.  Only the
  /// owning thread outside any task can lend; anywhere else this returns
  /// false and changes nothing.  While lent, the owning thread is a foreign
  /// thread: current() is null, its spawns go to the global queue, its
  /// waits help through the non-worker pick, and replay() only submits.
  /// Loans are counted: the first starts the stand-in, later ones share
  /// it.  Every lend that returned true is paired with one reclaim_slot0().
  bool lend_slot0();

  /// Returns one loan.  When the last loan is returned on the owning
  /// thread outside any task, the stand-in finishes the chain it holds and
  /// is joined, and the owning thread is worker 0 again (binding, OSS_PIN
  /// mask and trace row restored).  Returned anywhere else, the stand-in
  /// keeps slot 0 until a later lend/reclaim pair on the owning thread or
  /// the destructor.  Tasks left in slot 0's deque stay stealable.
  void reclaim_slot0();

  [[nodiscard]] const RuntimeConfig& config() const noexcept { return cfg_; }

  /// The machine topology this runtime schedules against: discovered from
  /// sysfs, overridden by `RuntimeConfig::topology` / OSS_TOPOLOGY, or flat
  /// when `OSS_NUMA=off`.  Node indices accepted by `TaskBuilder::affinity`
  /// are indices into `topology().nodes()`.
  [[nodiscard]] const Topology& topology() const noexcept { return topo_; }

  /// The scheduler (topology queries, steal-budget diagnostics).
  [[nodiscard]] const Scheduler& scheduler() const noexcept {
    return *scheduler_;
  }

  /// Workers successfully pinned to their home node's CPU set (OSS_PIN).
  /// 0 when pinning is off, structurally dissolved (single-node topology),
  /// unsupported, or fully blocked by the process cpu mask.  Deterministic
  /// once the constructor returned — pinning is applied synchronously.
  [[nodiscard]] std::size_t pinned_workers() const noexcept {
    return pinned_workers_;
  }

  /// Counter snapshot — the single merge point for runtime-owned and
  /// scheduler-owned counters (table1 and the apps' StatsSnapshot
  /// out-params all read through here).
  ///
  /// Read contract: every counter is a relaxed atomic read; the snapshot
  /// is *per-counter coherent* (each value existed at some point) but not
  /// cross-counter consistent while workers are in flight — e.g.
  /// tasks_executed may momentarily trail tasks_spawned.  Snapshots taken
  /// at a quiescent point (after `barrier()` / the destructor's drain, or
  /// a `taskwait()` with no unrelated tasks) are exact: every counter
  /// update happens-before the completion the wait observed.
  [[nodiscard]] StatsSnapshot stats() const;

  /// DOT rendering of the recorded task graph.  Empty unless
  /// `config().record_graph` was set.
  [[nodiscard]] std::string export_graph_dot() const;

  /// Chrome trace-event JSON.  Empty unless tracing is enabled
  /// (OSS_TRACE=exec|full / `config().record_trace`).  Exec mode reproduces
  /// the classic one-event-per-task format; full mode adds named worker
  /// rows, spawn→run flow arrows, and scheduler instants.
  [[nodiscard]] std::string export_trace_json() const;

  /// Writes the trace to `path` at the next quiescent point — actually at
  /// destruction, after the final drain (so the export covers everything).
  /// A ".prv" suffix selects the Paraver format (".row"/".pcf" written next
  /// to it), anything else Chrome JSON.  Overrides `config().trace_out`.
  /// A warning is printed (and nothing recorded) when tracing is off —
  /// enable it at construction, the rings cannot appear retroactively.
  void trace_to(std::string path);

  /// The trace system itself (null unless tracing enabled): merged events,
  /// drop counters, on-demand exports.
  [[nodiscard]] TraceSystem* trace_system() const noexcept {
    return trace_.get();
  }

  /// The legacy run-span view for `analyze_trace` (null unless tracing
  /// enabled).  Thin shim: rebuilt from the ring-buffer event stream on
  /// each call — take it once, at a quiescent point.
  [[nodiscard]] const TraceRecorder* trace_recorder() const {
    return trace_ ? &trace_->legacy_recorder() : nullptr;
  }

  /// Per-label profiling snapshot + work/span/parallelism summary
  /// (docs/observability.md).  Empty unless profiling is enabled
  /// (RuntimeConfig::prof / prof_every_ms / watchdog_ms — the OSS_PROF,
  /// OSS_PROF_EVERY_MS, OSS_WATCHDOG knobs).  Same coherence contract as
  /// stats(): exact at quiescent points, per-counter coherent in flight.
  [[nodiscard]] ProfileSnapshot profile() const;

  /// The profiling system itself (null unless profiling enabled).
  [[nodiscard]] ProfSystem* prof_system() const noexcept {
    return prof_.get();
  }

  /// Writes the health dump — queue depths per tier/node, parked-worker
  /// counts, what every worker is running right now, the oldest unfinished
  /// tasks — to `os`.  Safe from any thread at any time; this is what the
  /// OSS_WATCHDOG stall detector and the SIGUSR1 handler print.
  void dump_health(std::ostream& os) const;

  /// Health dumps emitted by the runtime itself so far (watchdog stalls +
  /// SIGUSR1 requests); regression hook for the watchdog tests.
  [[nodiscard]] std::uint64_t health_dumps() const noexcept {
    return health_dumps_.load(std::memory_order_relaxed);
  }

  /// The graph recorder (null unless `config().record_graph`); exposes the
  /// recorded edge multiset for parity tests and tooling beyond DOT export.
  [[nodiscard]] const GraphRecorder* graph_recorder() const noexcept {
    return graph_.get();
  }

  /// Unfinished tasks currently known to the runtime (diagnostics).
  [[nodiscard]] std::size_t pending_tasks() const noexcept {
    return pending_.load(std::memory_order_acquire);
  }

  /// The runtime the current thread is executing under (null outside).
  static Runtime* current() noexcept;

  /// Worker id of the calling thread within its runtime: 0 for the owning
  /// thread, 1..N-1 for pool workers, -1 for foreign threads.
  static int current_worker() noexcept;

  /// Thread-local binding of a thread to a runtime (implementation detail,
  /// public so the thread_local instance can live at namespace scope).
  struct ThreadBinding;

 private:
  friend class GraphCapture;

  /// The scheduling loop of executor slot `wid`, run by pool workers and
  /// by the slot-0 stand-in; returns once `stop` is set and no kept task
  /// is held.
  void worker_loop(int wid, const std::atomic<bool>& stop);
  /// Makes the calling (owning) thread worker 0 again: OSS_PIN mask,
  /// trace row and binding, in that order.
  void rebind_owner();
  /// OSS_PIN: binds every worker thread (including the owning thread,
  /// worker 0) to its pinning target, intersected with the process
  /// affinity mask — the home node's whole CPU set for `node`, a single
  /// CPU per worker for `compact`/`scatter` (see pin_layout()).  Workers
  /// the mask cannot cover stay unpinned; one warning line total, never
  /// an abort.  Called from the constructor after the pool threads exist
  /// (pthread_setaffinity_np targets them by native handle, so the count
  /// is final when construction returns).
  void apply_pinning();
  void collector_loop();
  /// The next task for worker `wid`: `held` (the successor its last
  /// retirement kept, accounted as a local pop) if set, else a scheduler
  /// pick.  Null when there is no work.
  TaskPtr next_task(TaskPtr& held, int wid);
  /// Runs `t` and retires it.  Returns the successor the retirement kept
  /// for this thread to run next (Scheduler::keep_unblocked), or null.
  /// Callers loop over the returned chain; a caller that stops early must
  /// pass the kept task to hand_back().
  [[nodiscard]] TaskPtr execute(const TaskPtr& t, int wid);
  /// `exec_ticks` is the task body's raw-tick duration (0 when neither
  /// profiling nor graph recording needs it) — it extends the critical
  /// path the finished task hands to its successors.  Returns the kept
  /// successor, as execute().
  [[nodiscard]] TaskPtr on_finished(const TaskPtr& t, int wid,
                                    std::uint64_t exec_ticks);
  /// Publishes a kept task this thread will not run after all: enqueued
  /// as an unblocked task of `wid`, plus one wakeup.
  void hand_back(TaskPtr t, int wid);
  ContextPtr current_spawn_context();

  /// Wakes one parked worker after a task was enqueued.  `preferred_node`
  /// (dense topology index, -1 = none) is tried first — a home-node
  /// enqueue should release a same-node parked worker, not ship the task
  /// across the interconnect to whoever wakes.  When nobody is parked the
  /// cost is a pair of uncontended atomic ops per gate scanned (one gate
  /// on single-node topologies; every gate must still bump its epoch — a
  /// waiter between prepare_wait and wait is only covered by the bump, so
  /// skipping "empty" gates would reintroduce lost wakeups).
  void wake_one_worker(int preferred_node = -1);

  /// Batch wakeup: after an enqueue burst of `n` tasks, wakes min(n, parked)
  /// workers in one eventcount pass per node gate instead of n serial
  /// notify_one calls, starting at `preferred_node`.
  void wake_workers(std::size_t n, int preferred_node = -1);

  /// Index into idle_gates_ for a worker (node gate on multi-node
  /// topologies, the single gate otherwise).
  [[nodiscard]] std::size_t gate_index(int wid) const noexcept;

  /// Polls (executing tasks) or blocks until `done()` returns true.
  void wait_until(const std::function<bool()>& done);

  /// Releases a captured iteration's hold predecessors in capture order
  /// (GraphCapture::finish / abandoning destructor): tasks whose count
  /// reaches zero become Ready and are batch-enqueued.  Defined in
  /// replay.cpp alongside Runtime::replay.
  void capture_release(const std::vector<TaskPtr>& held);

  /// Enqueues a burst of already-Ready tasks and wakes min(N, parked)
  /// workers, bucketed by home-node gate on multi-node topologies — the
  /// batch half of the node-aware wakeup path, shared by capture_release
  /// and replay.  Defined in replay.cpp.
  void publish_ready_batch(std::vector<TaskPtr>& ready, int worker);

  RuntimeConfig cfg_;
  std::size_t num_threads_;

  /// Process-wide construction serial (monotonic).  ReplayGraph remembers
  /// the serial of the runtime that captured it, so replay against a
  /// *restarted* runtime — even one constructed at the same address — is
  /// rejected instead of replaying stale structure (docs/replay.md).
  std::uint64_t serial_ = 0;

  /// Open capture scope, or null.  Written by GraphCapture's constructor/
  /// destructor on the capturing thread; read on every spawn.  A capture
  /// scope is single-threaded by contract, but unrelated threads may spawn
  /// into other runtimes concurrently — hence the atomic.
  std::atomic<GraphCapture*> capture_{nullptr};

  // There is deliberately no runtime-wide graph mutex: dependency state is
  // sharded inside each context's DepDomain (docs/dependencies.md), and
  // per-task bookkeeping (preds, successors) carries its own
  // synchronization — spawn and finish scale with the thread count.
  std::atomic<std::uint64_t> next_task_id_{0};

  ContextPtr root_ctx_;

  /// Edge-discovery callback handed to every registration, built once at
  /// construction — spawn_task used to materialize a fresh std::function
  /// per spawn, a capture-copy on the hottest path for nothing.
  EdgeSink edge_sink_;

  /// oss::pool::overflow_total() at construction; stats() reports the
  /// delta so a runtime's snapshot reflects (approximately, the pool is
  /// process-wide) its own overflow traffic.
  std::uint64_t pool_overflow_base_ = 0;

  Topology topo_; ///< declared before scheduler_: create() reads it
  std::unique_ptr<Scheduler> scheduler_;
  mutable Stats stats_;
  CriticalRegistry criticals_;
  std::unique_ptr<GraphRecorder> graph_;
  std::unique_ptr<TraceSystem> trace_;
  std::string trace_out_; ///< destructor export target ("" = none)

  /// oss::prof (docs/observability.md): per-label task profiles and
  /// work/span critical-path attribution.  Null when OSS_PROF,
  /// OSS_PROF_EVERY_MS and OSS_WATCHDOG are all off — the execution path
  /// then never reads the clock on profiling's behalf.
  std::unique_ptr<ProfSystem> prof_;

  /// True when anything consumes per-task critical-path bookkeeping
  /// (prof_ or graph_); gates the successor path offers in on_finished so
  /// trace-only runs pay nothing new.
  bool path_track_ = false;

  /// What each worker is running right now (null unless prof_): relaxed
  /// stores around the task body, read by the watchdog/dump — an
  /// approximate, racy view by design.
  struct RunSlot {
    std::atomic<std::uint64_t> task_id{0}; ///< 0 = idle
    std::atomic<std::uint32_t> label{0};
    std::atomic<std::uint64_t> start_ticks{0};
  };
  std::unique_ptr<RunSlot[]> run_slots_; ///< num_threads_ entries

  std::atomic<std::uint64_t> health_dumps_{0};

  /// Optional collector thread (OSS_STATS_EVERY_MS / OSS_PROF_EVERY_MS /
  /// OSS_WATCHDOG): periodically drains the trace rings, prints stats and
  /// profile deltas, and runs the no-progress watchdog.  The stop flag is
  /// atomic and the destructor joins the thread *before* starting any
  /// teardown, so a tick can never land mid-destruction.
  std::thread collector_;
  std::mutex collector_mu_;
  std::condition_variable collector_cv_;
  std::atomic<bool> collector_stop_{false};

  /// Spawned but not finished: written by every spawn and every
  /// retirement, so it sits alone on its line — in particular off the line
  /// holding stop_, which every idle worker loads each loop.
  alignas(64) std::atomic<std::size_t> pending_{0};
  alignas(64) std::atomic<bool> stop_{false};

  std::size_t pinned_workers_ = 0; ///< workers OSS_PIN actually bound
  /// Worker 0 is the caller's thread: its thread id identifies it to
  /// lend_slot0/reclaim_slot0, and its pre-pin affinity mask is saved so a
  /// destructor running on that same thread hands it back unpinned
  /// (cross-thread destruction keeps the pinned mask — restoring through a
  /// stored pthread handle would risk a dead pthread_t; the id comparison
  /// has no such lifetime hazard and, unlike tl_binding, survives nested
  /// runtimes on one thread).
  std::vector<int> owner_prev_cpus_;
  std::thread::id owner_tid_;

  /// Park/unpark gates for idle workers (IdlePolicy::Park), one per NUMA
  /// node (a single gate on single-node topologies, where the whole
  /// node-awareness structurally dissolves).  A worker parks on its own
  /// node's gate; an enqueue wakes a worker parked on the task's home node
  /// first and falls back to the other gates, so a home-node task is
  /// claimed by a same-node worker instead of whoever happens to wake.
  /// Stop wakes all gates.
  std::vector<std::unique_ptr<EventCount>> idle_gates_;

  /// Rotates the fallback start gate for wakeups without a node
  /// preference, so node 0 doesn't absorb every anonymous wakeup.
  std::atomic<std::uint32_t> wake_cursor_{0};

  // Blocking-wait support: waiters sleep on cv_, completions notify when
  // blocked_waiters_ > 0 (so the polling fast path pays nothing).
  std::mutex cv_mu_;
  std::condition_variable cv_;
  std::atomic<int> blocked_waiters_{0};

  std::vector<std::thread> workers_;

  /// Slot-0 loan (lend_slot0): slot 0's OSS_PIN target (empty =
  /// unpinned), the number of outstanding loans and the stand-in thread,
  /// both guarded by loan_mu_, and the stand-in's stop flag.  A stand-in is
  /// started and joined only on the owning thread.
  std::vector<int> slot0_cpus_;
  std::mutex loan_mu_;
  std::size_t lenders_ = 0;
  std::atomic<bool> standin_stop_{false};
  std::thread standin_;
};

} // namespace oss
