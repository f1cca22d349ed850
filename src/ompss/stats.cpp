#include "ompss/stats.hpp"

#include <cstdlib>
#include <sstream>

namespace oss {

StatsSnapshot Stats::snapshot() const {
  StatsSnapshot s;
  s.tasks_spawned = tasks_spawned_.load(std::memory_order_relaxed);
  s.tasks_executed = tasks_executed_.load(std::memory_order_relaxed);
  s.edges_raw = edges_raw_.load(std::memory_order_relaxed);
  s.edges_war = edges_war_.load(std::memory_order_relaxed);
  s.edges_waw = edges_waw_.load(std::memory_order_relaxed);
  s.edges_explicit = edges_explicit_.load(std::memory_order_relaxed);
  s.local_pops = local_pops_.load(std::memory_order_relaxed);
  s.global_pops = global_pops_.load(std::memory_order_relaxed);
  s.steals = steals_.load(std::memory_order_relaxed);
  s.steals_failed = steals_failed_.load(std::memory_order_relaxed);
  s.steals_remote = steals_remote_.load(std::memory_order_relaxed);
  s.tasks_local = tasks_local_.load(std::memory_order_relaxed);
  s.tasks_remote = tasks_remote_.load(std::memory_order_relaxed);
  s.parks = parks_.load(std::memory_order_relaxed);
  s.wakeups = wakeups_.load(std::memory_order_relaxed);
  s.dep_single_shard = dep_single_shard_.load(std::memory_order_relaxed);
  s.dep_multi_shard = dep_multi_shard_.load(std::memory_order_relaxed);
  s.dep_contended = dep_contended_.load(std::memory_order_relaxed);
  s.replayed_tasks = replayed_tasks_.load(std::memory_order_relaxed);
  s.replay_graphs = replay_graphs_.load(std::memory_order_relaxed);
  s.taskwaits = taskwaits_.load(std::memory_order_relaxed);
  s.barriers = barriers_.load(std::memory_order_relaxed);
  s.tasks_recycled = tasks_recycled_.load(std::memory_order_relaxed);
  s.pool_misses = pool_misses_.load(std::memory_order_relaxed);
  s.per_worker_executed.reserve(per_worker_executed_.size());
  for (const auto& c : per_worker_executed_)
    s.per_worker_executed.push_back(c.c.load(std::memory_order_relaxed));
  return s;
}

std::string StatsSnapshot::to_string() const {
  std::ostringstream os;
  os << "tasks: spawned=" << tasks_spawned << " executed=" << tasks_executed << '\n'
     << "edges: RAW=" << edges_raw << " WAR=" << edges_war << " WAW=" << edges_waw
     << " explicit=" << edges_explicit << " total=" << edges_total() << '\n'
     << "queue: local=" << local_pops << " global=" << global_pops
     << " steals=" << steals << " steal-fails=" << steals_failed << '\n'
     << "numa: local=" << tasks_local << " remote=" << tasks_remote
     << " remote-steals=" << steals_remote
     << " overflow=" << overflow_placements << '\n'
     << "idle: parks=" << parks << " wakeups=" << wakeups << '\n'
     << "deps: single-shard=" << dep_single_shard
     << " multi-shard=" << dep_multi_shard
     << " contended=" << dep_contended << '\n'
     << "replay: graphs=" << replay_graphs << " tasks=" << replayed_tasks << '\n'
     << "waits: taskwait=" << taskwaits << " barrier=" << barriers << '\n'
     << "trace: dropped=" << trace_dropped << '\n'
     << "pool: recycled=" << tasks_recycled << " misses=" << pool_misses
     << " overflow=" << pool_overflow << '\n'
     << "per-worker executed:";
  for (std::size_t i = 0; i < per_worker_executed.size(); ++i)
    os << " w" << i << '=' << per_worker_executed[i];
  os << '\n';
  return os.str();
}

std::string StatsSnapshot::footer(const std::string& tag) const {
  std::ostringstream os;
  os << "[oss-stats " << tag << "] tasks=" << tasks_executed
     << " (local=" << tasks_local << " remote=" << tasks_remote
     << ") steals=" << steals << " parks=" << parks
     << " deps(single=" << dep_single_shard << " multi=" << dep_multi_shard
     << " contended=" << dep_contended << " replayed=" << replayed_tasks
     << ") overflow=" << overflow_placements
     << " pool(recycled=" << tasks_recycled << " misses=" << pool_misses
     << " overflow=" << pool_overflow << ")"
     << " trace_dropped=" << trace_dropped;
  return os.str();
}

bool stats_footer_enabled() {
  const char* v = std::getenv("OSS_STATS");
  if (v == nullptr) return false;
  const std::string s(v);
  return s == "1" || s == "true" || s == "yes" || s == "on";
}

} // namespace oss
