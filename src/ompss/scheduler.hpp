// scheduler.hpp — pluggable ready-task placement policies.
//
// The paper attributes the ray-rot result to the runtime scheduler "placing
// dependent tasks on the same core": when task B becomes ready because task A
// (its producer) finished on worker W, B is pushed to the hot end of W's
// local deque so W executes it back-to-back with A while A's output is still
// in cache.  The runtime goes one step further for one such task per
// retirement: when keep_unblocked() allows it, W keeps B and runs it next
// without the deque round trip (the successor hand-off, docs/scheduler.md).
// Three policies implement that idea plus two reference points:
//
//   Fifo          — one sharded global FIFO; placement-oblivious baseline.
//   Locality      — unblocked tasks go to the finishing worker's local LIFO;
//                   spawn-ready tasks go to the global queue.  (Default,
//                   matches the Nanos++ behaviour the paper describes.)
//   WorkStealing  — like Locality, but spawn-ready tasks also go to the
//                   spawner's local deque when the spawner is a worker.
//
// Under every policy an idle worker falls back to the global queue and then
// steals from the cold end of sibling deques, so no ready task can be
// stranded.  The local deques are lock-free Chase–Lev (chase_lev.hpp) and
// the global queues are sharded MPMC rings (mpmc_queue.hpp); build with
// -DOSS_MUTEX_QUEUES=ON for the mutex-deque baseline.
//
// NUMA awareness (docs/numa.md): on multi-node topologies every policy
// routes tasks carrying a home-node hint (`Task::home_node`) to a per-node
// ready queue drained preferentially by that node's workers; victim sweeps
// try same-socket deques before crossing the interconnect; and each
// worker's state block + deque buffers are allocated on its own node
// (NumaMode::Bind).  On a single-node topology all of this collapses to
// exactly the topology-blind behaviour.
//
// `Scheduler` is an abstract interface so the runtime can swap policies
// without special-casing; implementations live in scheduler_impl.hpp and
// the scheduler_*.cpp policy files, and are built via `Scheduler::create`.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "ompss/config.hpp"
#include "ompss/stats.hpp"
#include "ompss/task.hpp"
#include "ompss/topology.hpp"

namespace oss {

class TraceSystem;

/// Per-tier queue-depth breakdown (Scheduler::queue_depths) — the health
/// dump's view of where ready tasks are waiting.  All counts approximate
/// (racy snapshot of concurrently mutated queues).
struct QueueDepths {
  std::size_t priority = 0;            ///< global high-priority tier
  std::size_t global = 0;              ///< global spawn-ready tier
  std::vector<std::size_t> per_node;   ///< per-NUMA-node home queues
  std::vector<std::size_t> per_worker; ///< per-worker local deques
};

class Scheduler {
 public:
  /// Builds the scheduler implementing `policy` for `num_workers` workers.
  /// `steal_tries` is the ceiling of full victim sweeps an idle pick()
  /// performs before giving up (the OSS_STEAL_TRIES knob; the per-worker
  /// sweep count adapts below it — see steal_budget).  `topo` describes the
  /// machine (default: a blind single-node topology) and `numa` selects how
  /// aggressively the scheduler binds its own state to it.  `pressure` is
  /// the home-queue depth at which soft (auto/inherited) placements widen
  /// to the global tier while another node has parked workers
  /// (OSS_PRESSURE; 0 disables the feedback).
  static std::unique_ptr<Scheduler> create(
      SchedulerPolicy policy, std::size_t num_workers,
      std::size_t steal_tries = 2, const Topology& topo = Topology(),
      NumaMode numa = NumaMode::Bind, std::size_t pressure = 8);

  virtual ~Scheduler() = default;

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Places a task that was ready at spawn time (no unmet dependencies).
  /// `spawner_worker` is the worker id of the spawning thread, or -1 when
  /// spawned from a non-worker thread.  When the policy routes the task to
  /// the spawner's local deque, the call must happen on that worker's own
  /// thread (the runtime always does; the deque owner ops require it).
  virtual void enqueue_spawned(TaskPtr t, int spawner_worker) = 0;

  /// Places a task that became ready because a predecessor finished on
  /// `finisher_worker` (-1 if the finisher is not a worker).  Same owner
  /// discipline as enqueue_spawned.
  virtual void enqueue_unblocked(TaskPtr t, int finisher_worker) = 0;

  /// Successor hand-off (docs/scheduler.md): true when the finisher should
  /// keep `t`, a task its retirement just made ready, and run it next
  /// itself instead of enqueueing it — never published, never woken for.
  /// The runtime keeps at most one task per retirement and enqueues the
  /// rest through enqueue_unblocked.  Fifo never keeps.
  [[nodiscard]] virtual bool keep_unblocked(const TaskPtr& t,
                                            int finisher_worker) const = 0;

  /// Called as the keeper starts a kept task: records the local pop and
  /// the Local placement its deque round trip would have recorded, so the
  /// accounting is the same whether a task was kept or enqueued.
  virtual void account_kept(const TaskPtr& t, int worker, Stats& stats) = 0;

  /// Takes the next task for `worker` (-1 for non-worker threads helping
  /// out): priority queue, then local deque, then global, then steal.
  /// Returns null if no work was found.  Updates pop/steal statistics.
  virtual TaskPtr pick(int worker, Stats& stats) = 0;

  /// Approximate count of queued ready tasks (for idle heuristics/tests).
  [[nodiscard]] virtual std::size_t queued() const = 0;

  /// Per-tier breakdown of `queued()` (health dumps, docs/observability.md).
  [[nodiscard]] virtual QueueDepths queue_depths() const = 0;

  /// Dense NUMA node index of a worker (0 on single-node topologies, -1
  /// for non-worker ids).  Matches Topology::node_of_worker.
  [[nodiscard]] virtual int worker_node(int worker) const noexcept = 0;

  /// Current adaptive sweep count of a worker's steal loop, in
  /// [1, steal_tries ceiling].  Diagnostics/tests.
  [[nodiscard]] virtual std::size_t steal_budget(int worker) const noexcept = 0;

  /// Park/unpark notifications from the runtime's idle loop.  The scheduler
  /// keeps per-node parked-worker counts out of them; they are what the
  /// home-queue pressure feedback consults ("is another node idle?").
  /// Non-worker ids are ignored.
  virtual void on_worker_park(int worker) noexcept = 0;
  virtual void on_worker_unpark(int worker) noexcept = 0;

  /// Times the pressure feedback diverted a soft home-node placement to the
  /// global tier (mirrored into StatsSnapshot::overflow_placements).
  [[nodiscard]] virtual std::uint64_t overflow_placements() const noexcept = 0;

  /// Parked workers currently registered on `node` (diagnostics/tests).
  [[nodiscard]] virtual std::size_t parked_on_node(int node) const noexcept = 0;

  [[nodiscard]] SchedulerPolicy policy() const noexcept { return policy_; }

  /// Attaches the trace stream (owned by the Runtime; may be null).  Called
  /// once right after construction, before any worker runs — placement,
  /// steal, and overflow events are emitted through it in full mode.
  void set_trace(TraceSystem* trace) noexcept { trace_ = trace; }

 protected:
  explicit Scheduler(SchedulerPolicy policy) : policy_(policy) {}

  TraceSystem* trace_ = nullptr;

 private:
  SchedulerPolicy policy_;
};

} // namespace oss
