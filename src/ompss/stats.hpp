// stats.hpp — runtime instrumentation counters.
//
// Cheap always-on counters (relaxed atomics) exposing what the runtime did:
// how many tasks, how many dependency edges of each hazard kind, where ready
// tasks were popped from, how often work was stolen.  The ablation benches
// use these to demonstrate *why* a configuration is faster (e.g. the
// locality scheduler showing high local-queue hit rates on ray-rot).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace oss {

/// Plain-value snapshot of the counters, safe to copy around.
struct StatsSnapshot {
  std::uint64_t tasks_spawned = 0;
  std::uint64_t tasks_executed = 0;
  std::uint64_t edges_raw = 0;
  std::uint64_t edges_war = 0;
  std::uint64_t edges_waw = 0;
  std::uint64_t edges_explicit = 0; ///< handle edges from TaskBuilder::after
  std::uint64_t local_pops = 0;  ///< ready tasks taken from own local queue
  std::uint64_t global_pops = 0; ///< ready tasks taken from the global queue
  std::uint64_t steals = 0;      ///< ready tasks taken from another worker
  std::uint64_t steals_failed = 0; ///< picks that swept every victim empty
  std::uint64_t steals_remote = 0; ///< steals whose victim sat on another
                                   ///< NUMA node (subset of steals)
  std::uint64_t tasks_local = 0;  ///< affinity tasks picked on their home node
  std::uint64_t tasks_remote = 0; ///< affinity tasks picked on a foreign node
  std::uint64_t overflow_placements = 0; ///< soft home placements widened to
                                         ///< the global tier by the pressure
                                         ///< feedback (filled from the
                                         ///< scheduler by Runtime::stats())
  std::uint64_t parks = 0;       ///< times an idle worker parked on the gate
  std::uint64_t wakeups = 0;     ///< parked workers signalled awake (batch
                                 ///< wakeups count every worker they released)
  std::uint64_t dep_single_shard = 0; ///< registrations that locked at most
                                      ///< one dependency shard (fast path;
                                      ///< access-free tasks lock none)
  std::uint64_t dep_multi_shard = 0;  ///< registrations spanning ≥2 shards
                                      ///< (sorted multi-lock path)
  std::uint64_t dep_contended = 0;    ///< registrations that found ≥1 shard
                                      ///< lock held by another spawner
  std::uint64_t replayed_tasks = 0; ///< tasks submitted by Runtime::replay —
                                    ///< spawned with zero DepDomain visits
                                    ///< (subset of tasks_spawned; the
                                    ///< dep-domain-bypass proof of
                                    ///< docs/replay.md)
  std::uint64_t replay_graphs = 0;  ///< Runtime::replay invocations
  std::uint64_t taskwaits = 0;
  std::uint64_t barriers = 0;
  std::uint64_t trace_dropped = 0; ///< trace events lost to ring overflow
                                   ///< (filled from the TraceSystem by
                                   ///< Runtime::stats(); 0 when tracing off)
  std::uint64_t tasks_recycled = 0; ///< spawns served from the task pool
                                    ///< instead of the allocator (OSS_POOL)
  std::uint64_t pool_misses = 0;    ///< spawns that found both the thread
                                    ///< cache and the global pool empty and
                                    ///< allocated a fresh slab batch
  std::uint64_t pool_overflow = 0;  ///< retired tasks a full thread cache
                                    ///< spilled to the global pool (filled
                                    ///< from oss::pool by Runtime::stats())
  std::vector<std::uint64_t> per_worker_executed;

  [[nodiscard]] std::uint64_t edges_total() const {
    return edges_raw + edges_war + edges_waw + edges_explicit;
  }

  /// Multi-line human-readable rendering.
  [[nodiscard]] std::string to_string() const;

  /// One-line summary for bench footers: task placement, steals, dep-shard
  /// traffic, trace drops.  `tag` names the run (benchmark/app name).
  [[nodiscard]] std::string footer(const std::string& tag) const;
};

/// True when OSS_STATS is set to a truthy value ("1"/"true"/"yes"/"on") —
/// the benches and apps print a `StatsSnapshot::footer` line to stderr so
/// runs are self-describing.
bool stats_footer_enabled();

class Stats {
 public:
  explicit Stats(std::size_t num_workers) : per_worker_executed_(num_workers) {}

  void on_spawn() { inc(tasks_spawned_); }
  void on_execute(int worker) {
    inc(tasks_executed_);
    if (worker >= 0 && static_cast<std::size_t>(worker) < per_worker_executed_.size())
      inc(per_worker_executed_[static_cast<std::size_t>(worker)].c);
  }
  void on_edge_raw() { inc(edges_raw_); }
  void on_edge_war() { inc(edges_war_); }
  void on_edge_waw() { inc(edges_waw_); }
  void on_edge_explicit() { inc(edges_explicit_); }
  void on_local_pop() { inc(local_pops_); }
  void on_global_pop() { inc(global_pops_); }
  void on_steal() { inc(steals_); }
  void on_steal_failed() { inc(steals_failed_); }
  void on_steal_remote() { inc(steals_remote_); }
  void on_task_local() { inc(tasks_local_); }
  void on_task_remote() { inc(tasks_remote_); }
  void on_park() { inc(parks_); }
  void on_wakeup(std::uint64_t count = 1) {
    wakeups_.fetch_add(count, std::memory_order_relaxed);
  }
  /// One dependency registration: how many shards it locked and whether
  /// any of those locks were contended (DepDomain::RegisterReceipt).
  void on_dep_registration(std::uint32_t shards_touched, bool contended) {
    if (shards_touched > 1) {
      inc(dep_multi_shard_);
    } else {
      inc(dep_single_shard_);
    }
    if (contended) inc(dep_contended_);
  }
  void on_taskwait() { inc(taskwaits_); }
  void on_barrier() { inc(barriers_); }
  /// One Runtime::replay submission of `tasks` tasks.  Replayed tasks count
  /// as spawned (they are), but touch neither dep_single_shard_ nor
  /// dep_multi_shard_ — the counter gap is what proves the bypass.
  void on_replay(std::uint64_t tasks) {
    replay_graphs_.fetch_add(1, std::memory_order_relaxed);
    replayed_tasks_.fetch_add(tasks, std::memory_order_relaxed);
    tasks_spawned_.fetch_add(tasks, std::memory_order_relaxed);
  }
  /// Bulk edge accounting for a replayed graph (per-kind totals were
  /// counted once at capture; a replay adds them in four adds instead of
  /// one callback per edge).
  void add_edges(std::uint64_t raw, std::uint64_t war, std::uint64_t waw,
                 std::uint64_t expl) {
    if (raw) edges_raw_.fetch_add(raw, std::memory_order_relaxed);
    if (war) edges_war_.fetch_add(war, std::memory_order_relaxed);
    if (waw) edges_waw_.fetch_add(waw, std::memory_order_relaxed);
    if (expl) edges_explicit_.fetch_add(expl, std::memory_order_relaxed);
  }
  /// One pooled-task acquisition: recycled (pool hit) or a fresh slab
  /// allocation (pool miss).  Not called when OSS_POOL=off.
  void on_pool_acquire(bool recycled) {
    inc(recycled ? tasks_recycled_ : pool_misses_);
  }
  /// Bulk form for a replayed graph: its pool hits are counted locally and
  /// added once.
  void add_pool_acquires(std::uint64_t recycled, std::uint64_t misses) {
    tasks_recycled_.fetch_add(recycled, std::memory_order_relaxed);
    pool_misses_.fetch_add(misses, std::memory_order_relaxed);
  }

  [[nodiscard]] StatsSnapshot snapshot() const;

 private:
  using Counter = std::atomic<std::uint64_t>;
  static void inc(Counter& c) { c.fetch_add(1, std::memory_order_relaxed); }

  /// One counter alone on its cache line (per-worker slots).
  struct alignas(64) PaddedCounter {
    Counter c{0};
  };

  // Counters are grouped by the threads that write them, each group
  // starting a fresh cache line, so a spawning thread never pays a line
  // transfer for a counter an executing or idle worker bumped last
  // (docs/scheduler.md, "Who writes which hot line").

  // Spawner: spawn, dependency registration, replay submission, waits.
  alignas(64) Counter tasks_spawned_{0};
  Counter tasks_recycled_{0};
  Counter pool_misses_{0};
  Counter dep_single_shard_{0};
  Counter dep_multi_shard_{0};
  Counter dep_contended_{0};
  Counter edges_raw_{0};
  Counter edges_war_{0};
  Counter edges_waw_{0};
  Counter edges_explicit_{0};
  Counter replayed_tasks_{0};
  Counter replay_graphs_{0};
  Counter taskwaits_{0};
  Counter barriers_{0};

  // Executors: every pick and every retirement.
  alignas(64) Counter tasks_executed_{0};
  Counter local_pops_{0};
  Counter global_pops_{0};
  Counter steals_{0};
  Counter steals_remote_{0};
  Counter tasks_local_{0};
  Counter tasks_remote_{0};
  std::vector<PaddedCounter> per_worker_executed_;

  // Idle workers: every empty victim sweep and every park.
  alignas(64) Counter steals_failed_{0};
  Counter parks_{0};

  // Wakers: spawners and finishers alike.
  alignas(64) Counter wakeups_{0};
};

} // namespace oss
