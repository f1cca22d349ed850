// scheduler_impl.hpp — shared machinery for the scheduler policies.
//
// `SchedulerBase` owns what every policy needs: the sharded global queues
// (normal + priority), one cache-line-padded state block per worker (local
// Chase–Lev deque + private steal RNG + adaptive steal budget), the
// per-NUMA-node ready queues and worker↔node maps on multi-node topologies,
// and the common pick/steal skeleton.  The concrete policies
// (scheduler_fifo.cpp, scheduler_locality.cpp, scheduler_wsteal.cpp) only
// decide *placement*; the drain side is shared.
//
// NUMA layout: on a multi-node topology each worker's state block (and its
// deque ring buffers) is placement-new'ed into pages bound to the worker's
// node (NumaMode::Bind), and one extra ShardedTaskQueue per node holds the
// tasks whose home-node hint points there.  Single-node topologies build
// none of this and behave exactly like the topology-blind scheduler.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "ompss/mpmc_queue.hpp"
#include "ompss/queues.hpp"
#include "ompss/scheduler.hpp"
#include "ompss/trace.hpp"

namespace oss {

class SchedulerBase : public Scheduler {
 protected:
  SchedulerBase(SchedulerPolicy policy, std::size_t num_workers,
                std::size_t steal_tries, const Topology& topo, NumaMode numa,
                std::size_t pressure);

 public:
  ~SchedulerBase() override;

  [[nodiscard]] std::size_t queued() const override;
  [[nodiscard]] QueueDepths queue_depths() const override;
  [[nodiscard]] int worker_node(int worker) const noexcept override;
  [[nodiscard]] std::size_t steal_budget(int worker) const noexcept override;

  void on_worker_park(int worker) noexcept override;
  void on_worker_unpark(int worker) noexcept override;
  [[nodiscard]] std::uint64_t overflow_placements() const noexcept override {
    return overflow_placements_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t parked_on_node(int node) const noexcept override;

  /// The hand-off rule of the locality policies (Fifo overrides it to
  /// never keep): keep exactly what enqueue_unblocked would push to the
  /// finisher's own deque (a worker finisher on the task's home node, no
  /// priority), and only while no priority task waits — a queued priority
  /// task must run before the next link, as it would if the link had gone
  /// through the deque.
  [[nodiscard]] bool keep_unblocked(const TaskPtr& t,
                                    int finisher_worker) const override {
    return is_worker(finisher_worker) && t->priority() <= 0 &&
           node_matches(finisher_worker, t) && global_hi_.empty();
  }

  void account_kept(const TaskPtr& t, int worker, Stats& stats) override {
    stats.on_local_pop();
    trace_place(t->id(), PlaceTier::Local);
    account_pick(worker, t, stats);
  }

 protected:
  /// Per-worker state, padded so neighbouring workers never share a line
  /// and node-bound so the hot deque words live on the owner's socket.
  /// The RNG is private to the owning worker (only the owner steals with
  /// it), so steal attempts no longer contend on a shared seed.
  struct alignas(64) WorkerState {
    explicit WorkerState(int numa_node) : deque(numa_node) {}
    WorkerDeque deque;
    std::uint64_t rng = 0;
    /// Patience budget for foreign-node-queue drains: consecutive picks
    /// this worker has skipped a foreign queue whose home node had parked
    /// workers.  At kForeignPatience the raid proceeds unconditionally, so
    /// nothing strands.  Owner-only, like rng.
    std::uint32_t foreign_deferrals = 0;
    /// Set by pick_common when this pick skipped a foreign queue; if the
    /// whole pick (steal tier included) then comes up empty, common_pick
    /// yields the OS quantum to the skipped node's waking workers.
    bool deferred_this_pick = false;
    /// Adaptive sweep count: halves after a fully-failed steal sweep,
    /// creeps back up on success, always within [1, steal_tries ceiling].
    /// Written only by the owning worker; atomic (relaxed) because the
    /// public steal_budget() accessor may read it from any thread.
    std::atomic<std::size_t> steal_budget{1};
  };

  /// Routes to the priority queue when applicable; returns true if consumed.
  /// Priority outranks affinity: a priority task goes to the global
  /// priority tier even when it carries a home-node hint.
  bool place_priority(TaskPtr& t) {
    if (t->priority() <= 0) return false;
    const std::uint64_t id = t->id();
    global_hi_.push(std::move(t));
    trace_place(id, PlaceTier::Priority);
    return true;
  }

  /// Full-mode trace hook for placement decisions (ts-free structural
  /// event: one ring push, nothing else).
  void trace_place(std::uint64_t task_id, PlaceTier tier) {
    if (trace_ != nullptr) trace_->emit_place(task_id, tier);
  }

  /// Routes a task carrying a valid home-node hint to that node's queue;
  /// returns true if consumed.  Always false on single-node topologies.
  ///
  /// Pressure feedback (work-first fallback): a *soft* hint — derived by
  /// affinity_auto or chain inheritance, never an explicit `.affinity()` —
  /// is diverted to the caller's fallthrough (the global tier) when the
  /// home queue is already `pressure_threshold_` deep while another node
  /// has parked workers.  Locality-first placement is only worth queueing
  /// delay while the home node keeps up; once it backs up and other
  /// sockets idle, running remotely now beats running locally later.
  bool place_home(TaskPtr& t) {
    const int home = t->home_node();
    if (home < 0 || static_cast<std::size_t>(home) >= node_queues_.size()) {
      return false;
    }
    if (t->home_soft() && pressure_threshold_ > 0 &&
        node_queues_[static_cast<std::size_t>(home)]->size() >=
            pressure_threshold_ &&
        parked_elsewhere(home)) {
      overflow_placements_.fetch_add(1, std::memory_order_relaxed);
      if (trace_ != nullptr) trace_->emit_overflow(t->id());
      return false;
    }
    const std::uint64_t id = t->id();
    node_queues_[static_cast<std::size_t>(home)]->push(std::move(t));
    trace_place(id, PlaceTier::Home);
    return true;
  }

  /// True when a node other than `home` currently has parked workers —
  /// the "someone idles across the interconnect" half of the pressure
  /// condition.  Relaxed reads: the feedback is a heuristic, a stale count
  /// costs at most one mis-widened (or mis-kept) placement.
  [[nodiscard]] bool parked_elsewhere(int home) const noexcept {
    for (std::size_t n = 0; n < node_workers_.size(); ++n) {
      if (static_cast<int>(n) == home) continue;
      if (node_parked_[n].load(std::memory_order_relaxed) > 0) return true;
    }
    return false;
  }

  /// True when `w` is a worker whose node matches the task's home hint, or
  /// the task has no (valid) hint — i.e. placing on `w`'s deque respects
  /// affinity.
  [[nodiscard]] bool node_matches(int w, const TaskPtr& t) const noexcept {
    const int home = t->home_node();
    if (home < 0 || static_cast<std::size_t>(home) >= node_queues_.size()) {
      return true;
    }
    return is_worker(w) && worker_node_[static_cast<std::size_t>(w)] == home;
  }

  /// Priority queue, the caller's local deque, the caller's node queue,
  /// the global queue, then foreign node queues.  `use_local` lets Fifo
  /// skip the local-deque tier entirely.
  TaskPtr pick_common(int worker, Stats& stats, bool use_local);

  /// The full pick skeleton every policy shares: queue tiers, then (for
  /// stealing policies) the victim sweep, then — only if the entire pick
  /// came up empty after a foreign-raid deferral — one OS yield so the
  /// skipped node's waking workers can claim their queue; finally the
  /// local/remote accounting.
  TaskPtr common_pick(int worker, Stats& stats, bool use_local, bool steal);

  /// Victim sweeps over sibling deques, same-socket victims first; the
  /// per-worker sweep count adapts to the failed-steal rate (capped by
  /// steal_tries).  Counts one failed-steal per pick that finds nothing.
  TaskPtr steal_from_siblings(int thief, Stats& stats);

  /// Attributes an affinity task to tasks_local/tasks_remote at pick time
  /// (the counters that prove the routing).  No-op for tasks without a
  /// hint, on single-node topologies, and for non-worker pickers.
  void account_pick(int worker, const TaskPtr& t, Stats& stats) const {
    if (!t || node_queues_.empty() || !is_worker(worker)) return;
    const int home = t->home_node();
    if (home < 0) return;
    if (worker_node_[static_cast<std::size_t>(worker)] == home) {
      stats.on_task_local();
    } else {
      stats.on_task_remote();
    }
  }

  [[nodiscard]] bool is_worker(int w) const noexcept {
    return w >= 0 && static_cast<std::size_t>(w) < num_workers_;
  }

  WorkerState& worker_state(int w) {
    return *workers_[static_cast<std::size_t>(w)];
  }

  /// xorshift64: cheap, decent-quality per-worker steal randomness.
  static std::uint64_t next_rand(std::uint64_t& s) noexcept {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    return s;
  }

  /// Consecutive picks a worker defers a foreign-node-queue raid while the
  /// home node has parked workers (see pick_common).  Small and fixed: the
  /// patience must stay invisible next to any real task's runtime.
  static constexpr std::uint32_t kForeignPatience = 4;

  std::size_t num_workers_;
  std::size_t steal_tries_; ///< adaptive-budget ceiling (OSS_STEAL_TRIES)
  std::size_t pressure_threshold_; ///< OSS_PRESSURE (0 = feedback off)
  Topology topo_;
  NumaMode numa_mode_;
  std::vector<int> worker_node_;               ///< worker id → dense node
  std::vector<std::vector<int>> node_workers_; ///< dense node → worker ids
  /// Parked workers per node (runtime park/unpark hooks); sized like
  /// node_workers_.
  std::unique_ptr<std::atomic<int>[]> node_parked_;
  std::atomic<std::uint64_t> overflow_placements_{0};
  ShardedTaskQueue global_hi_; ///< priority > 0, served before all else
  ShardedTaskQueue global_;
  /// One ready queue per node for home-node tasks; empty on single-node
  /// topologies (the whole NUMA path compiles down to two empty checks).
  std::vector<std::unique_ptr<ShardedTaskQueue>> node_queues_;
  /// State blocks, placement-new'ed into node-bound pages (see ctor).
  std::vector<WorkerState*> workers_;
  /// Sweep-start cursor for non-worker thieves (rare; workers use their
  /// private RNG instead).
  std::atomic<std::uint32_t> foreign_cursor_{0};

 private:
  TaskPtr try_steal(std::size_t victim, int thief, Stats& stats);

  /// Budget updates: owner-only writes, relaxed (see WorkerState).
  void grow_budget(WorkerState* st) const noexcept {
    if (st == nullptr) return;
    const std::size_t b = st->steal_budget.load(std::memory_order_relaxed);
    if (b < steal_tries_) {
      st->steal_budget.store(b + 1, std::memory_order_relaxed);
    }
  }
  static void decay_budget(WorkerState* st) noexcept {
    if (st == nullptr) return;
    const std::size_t b = st->steal_budget.load(std::memory_order_relaxed);
    if (b > 1) st->steal_budget.store(b / 2, std::memory_order_relaxed);
  }
};

class FifoScheduler final : public SchedulerBase {
 public:
  FifoScheduler(std::size_t num_workers, std::size_t steal_tries,
                const Topology& topo, NumaMode numa, std::size_t pressure)
      : SchedulerBase(SchedulerPolicy::Fifo, num_workers, steal_tries, topo,
                      numa, pressure) {}
  void enqueue_spawned(TaskPtr t, int spawner_worker) override;
  void enqueue_unblocked(TaskPtr t, int finisher_worker) override;
  [[nodiscard]] bool keep_unblocked(const TaskPtr& /*t*/,
                                    int /*finisher_worker*/) const override {
    return false;
  }
  TaskPtr pick(int worker, Stats& stats) override;
};

class LocalityScheduler final : public SchedulerBase {
 public:
  LocalityScheduler(std::size_t num_workers, std::size_t steal_tries,
                    const Topology& topo, NumaMode numa, std::size_t pressure)
      : SchedulerBase(SchedulerPolicy::Locality, num_workers, steal_tries,
                      topo, numa, pressure) {}
  void enqueue_spawned(TaskPtr t, int spawner_worker) override;
  void enqueue_unblocked(TaskPtr t, int finisher_worker) override;
  TaskPtr pick(int worker, Stats& stats) override;
};

class WorkStealingScheduler final : public SchedulerBase {
 public:
  WorkStealingScheduler(std::size_t num_workers, std::size_t steal_tries,
                        const Topology& topo, NumaMode numa,
                        std::size_t pressure)
      : SchedulerBase(SchedulerPolicy::WorkStealing, num_workers, steal_tries,
                      topo, numa, pressure) {}
  void enqueue_spawned(TaskPtr t, int spawner_worker) override;
  void enqueue_unblocked(TaskPtr t, int finisher_worker) override;
  TaskPtr pick(int worker, Stats& stats) override;
};

} // namespace oss
