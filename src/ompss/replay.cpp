// replay.cpp — graph capture/replay (oss::replay) plus the Runtime halves
// of the protocol (capture_release, publish_ready_batch, replay).  See
// replay.hpp for the capture/replay model and docs/replay.md for the user
// contract.
#include "ompss/replay.hpp"

#include <algorithm>
#include <functional>
#include <stdexcept>
#include <string>
#include <utility>

#include "ompss/runtime.hpp"
#include "ompss/task_pool.hpp"

namespace oss {

// ---------------------------------------------------------------------------
// GraphCapture
// ---------------------------------------------------------------------------

GraphCapture::GraphCapture(Runtime& rt) : rt_(rt) {
  GraphCapture* expected = nullptr;
  if (!rt.capture_.compare_exchange_strong(expected, this,
                                           std::memory_order_acq_rel)) {
    throw std::logic_error(
        "oss::GraphCapture: another capture scope is already open on this "
        "runtime");
  }
}

GraphCapture::~GraphCapture() {
  if (finished_) return;
  // Abandoned scope (early return / exception unwinding): the captured
  // structure is discarded, but the held iteration must still run — a task
  // parked on its hold predecessor forever would deadlock every later
  // taskwait/barrier.
  rt_.capture_.store(nullptr, std::memory_order_release);
  rt_.capture_release(held_);
}

void GraphCapture::on_spawn(const TaskPtr& t) {
  const auto idx = static_cast<std::uint32_t>(held_.size());
  index_.emplace(t->id(), idx);
  tables_.add_node(t->id(), t->label());
  // The hold predecessor: keeps the task (and therefore the whole captured
  // iteration) parked until finish(), so every producer is still live when
  // its consumers register — the discovered edge multiset is the full
  // structural graph, independent of machine speed or thread count.
  // Relaxed suffices: the spawn guard is still held (preds >= 1), so no
  // finisher can observe or race this increment into readiness.
  t->preds.fetch_add(1, std::memory_order_relaxed);
  held_.push_back(t);
}

void GraphCapture::on_edge(const TaskPtr& from, const TaskPtr& to,
                           DepKind kind) {
  const auto fi = index_.find(from->id());
  const auto ti = index_.find(to->id());
  if (fi == index_.end() || ti == index_.end()) {
    // A dependency on an unfinished task spawned *before* the scope opened:
    // replay could never reproduce that edge (the outside producer will not
    // exist next iteration), so the capture is rejected at the exact spawn
    // that introduced the foreign edge.
    throw std::logic_error(
        "oss::GraphCapture: dependency on a task outside the capture scope "
        "(taskwait() before opening the scope so pre-existing producers are "
        "finished)");
  }
  tables_.add_edge(from->id(), to->id(), kind);
  edges_.push_back({fi->second, ti->second, static_cast<std::uint8_t>(kind)});
  ++kind_counts_[static_cast<std::size_t>(kind)];
}

void GraphCapture::wire_reduced(ReplayGraph& g) const {
  // Transitive reduction: an edge p→v is dropped when another path from p
  // to v exists — it could never be the last predecessor v waits for, so
  // wiring it only costs a successor-list entry and an atomic decrement.
  // Reachability is unchanged, hence serial equivalence and the longest
  // path too.  Capture order is topological (every edge runs from an
  // earlier spawn to a later one), so task v's reduced predecessors can be
  // chosen once every earlier task is reduced: walk v's distinct
  // predecessors in descending index and keep p unless it is an ancestor
  // of a predecessor already kept.  A predecessor can only be an ancestor
  // of a later one, so the descending walk has checked every candidate
  // before p.  Ancestors come from a backward DFS over the reduced lists,
  // pruned below v's smallest predecessor (nothing lower can be one of
  // them), with an epoch-stamped visited array: O(n) extra memory.
  const std::size_t n = g.tasks_.size();
  std::vector<std::uint32_t> pred_begin(n + 1, 0);
  for (const ReplayGraph::EdgeRec& e : edges_) ++pred_begin[e.to + 1];
  for (std::size_t i = 0; i < n; ++i) pred_begin[i + 1] += pred_begin[i];
  std::vector<std::uint32_t> preds(edges_.size());
  {
    std::vector<std::uint32_t> fill(pred_begin.begin(), pred_begin.end() - 1);
    for (const ReplayGraph::EdgeRec& e : edges_) preds[fill[e.to]++] = e.from;
  }

  // The reduced lists are appended in task order into g.pred_idx_.
  std::vector<std::uint32_t>& red = g.pred_idx_;
  red.reserve(n);
  std::vector<std::uint32_t> seen(n, 0); // epoch stamps; epoch of v is v+1
  std::vector<std::uint32_t> stack;
  for (std::size_t v = 0; v < n; ++v) {
    ReplayGraph::TaskRec& rec = g.tasks_[v];
    rec.pred_begin = static_cast<std::uint32_t>(red.size());
    const auto begin = preds.begin() + pred_begin[v];
    const auto end = preds.begin() + pred_begin[v + 1];
    std::sort(begin, end, std::greater<>());
    const auto last = std::unique(begin, end);
    const std::uint32_t floor = begin != last ? *(last - 1) : 0;
    const std::uint32_t epoch = static_cast<std::uint32_t>(v) + 1;
    for (auto it = begin; it != last; ++it) {
      const std::uint32_t p = *it;
      if (seen[p] == epoch) continue; // implied through a kept edge
      red.push_back(p);
      stack.push_back(p);
      while (!stack.empty()) {
        const ReplayGraph::TaskRec& u = g.tasks_[stack.back()];
        stack.pop_back();
        for (std::uint32_t k = u.pred_begin; k < u.pred_end; ++k) {
          const std::uint32_t a = red[k];
          if (a < floor || seen[a] == epoch) continue;
          seen[a] = epoch;
          stack.push_back(a);
        }
      }
    }
    rec.pred_end = static_cast<std::uint32_t>(red.size());
  }
}

ReplayGraph GraphCapture::finish() {
  if (finished_) {
    throw std::logic_error("oss::GraphCapture::finish: already finished");
  }
  finished_ = true;

  ReplayGraph g;
  const std::size_t n = held_.size();
  g.tasks_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const TaskPtr& t = held_[i];
    ReplayGraph::TaskRec& rec = g.tasks_[i];
    rec.label = t->label();
    rec.trace_label = t->trace_label();
    rec.priority = t->priority();
    rec.home_node = t->home_node();
    rec.home_soft = t->home_soft();
    rec.lock_begin = static_cast<std::uint32_t>(g.locks_.size());
    for (const auto& m : t->exclusion_locks()) g.locks_.push_back(m);
    rec.lock_end = static_cast<std::uint32_t>(g.locks_.size());
  }

  // pred_count() is the in-degree over the *captured* edges — not a read
  // of the live atomics, so the frozen structure is internally consistent
  // by construction.  What replay wires is their transitive reduction.
  for (const ReplayGraph::EdgeRec& e : edges_) ++g.tasks_[e.to].preds;
  wire_reduced(g);
  for (const std::uint32_t p : g.pred_idx_) ++g.tasks_[p].succ_count;

  g.edges_ = std::move(edges_);
  for (std::size_t k = 0; k < 4; ++k) g.kind_counts_[k] = kind_counts_[k];
  g.tables_ = std::move(tables_);
  g.owner_ = &rt_;
  g.owner_serial_ = rt_.serial_;

  // Close the scope *before* releasing: tasks spawned from the released
  // bodies (nested spawns are legal once execution starts) must not be
  // recorded into the now-frozen capture.
  rt_.capture_.store(nullptr, std::memory_order_release);
  rt_.capture_release(held_);
  held_.clear();
  index_.clear();
  return g;
}

// ---------------------------------------------------------------------------
// ReplayGraph
// ---------------------------------------------------------------------------

std::vector<ReplayGraph::Edge> ReplayGraph::edges() const {
  std::vector<Edge> out;
  out.reserve(edges_.size());
  for (const EdgeRec& e : edges_) {
    out.push_back(Edge{e.from, e.to, static_cast<DepKind>(e.kind)});
  }
  return out;
}

// ---------------------------------------------------------------------------
// Runtime halves
// ---------------------------------------------------------------------------

void Runtime::capture_release(const std::vector<TaskPtr>& held) {
  if (held.empty()) return;
  const int worker = (Runtime::current() == this) ? Runtime::current_worker()
                                                  : -1;
  std::vector<TaskPtr> ready;
  ready.reserve(held.size());
  std::uint64_t ready_now = 0; // one clock read shared by the release burst
  for (const TaskPtr& t : held) {
    // Same protocol as the spawn-guard release: acq_rel pairs with the
    // producers' decrements, and whoever zeroes preds owns the Ready
    // transition — here that is always this thread (nothing has executed
    // yet), but the ordering contract is identical.
    if (t->preds.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      if (prof_) {
        if (ready_now == 0) ready_now = ProfSystem::clock();
        t->set_ready_ts(ready_now);
      }
      t->set_state(TaskState::Ready);
      if (trace_) trace_->emit_ready(t->id());
      ready.push_back(t);
    }
  }
  publish_ready_batch(ready, worker);
}

void Runtime::publish_ready_batch(std::vector<TaskPtr>& ready, int worker) {
  if (ready.empty()) return;
  const std::size_t gates = idle_gates_.size();
  if (gates == 1) {
    const std::size_t count = ready.size();
    for (TaskPtr& s : ready) {
      scheduler_->enqueue_spawned(std::move(s), worker);
    }
    wake_workers(count, 0);
  } else {
    // Node-gate bucketing, same shape as the on_finished burst: each
    // bucket's wakeup starts at the gate whose workers own the data.
    constexpr std::size_t kInlineGates = 16;
    std::size_t inline_counts[kInlineGates] = {};
    std::vector<std::size_t> spill;
    if (gates > kInlineGates) spill.resize(gates, 0);
    std::size_t* per_gate = gates > kInlineGates ? spill.data() : inline_counts;
    const std::size_t fallback_gate = gate_index(worker);
    for (TaskPtr& s : ready) {
      const int home = s->home_node();
      const std::size_t g =
          (home >= 0 && static_cast<std::size_t>(home) < gates)
              ? static_cast<std::size_t>(home)
              : fallback_gate;
      ++per_gate[g];
      scheduler_->enqueue_spawned(std::move(s), worker);
    }
    for (std::size_t g = 0; g < gates; ++g) {
      if (per_gate[g] > 0) wake_workers(per_gate[g], static_cast<int>(g));
    }
  }
  if (blocked_waiters_.load(std::memory_order_acquire) > 0) {
    std::lock_guard lock(cv_mu_);
    cv_.notify_all();
  }
}

void Runtime::replay(const ReplayGraph& graph,
                     const std::function<Task::Fn(std::size_t)>& binder) {
  if (!graph.valid() || graph.owner_ != this ||
      graph.owner_serial_ != serial_) {
    throw std::invalid_argument(
        "oss::Runtime::replay: graph was not captured by this runtime "
        "instance (a graph does not survive a runtime restart — re-capture)");
  }
  if (!binder) {
    throw std::invalid_argument("oss::Runtime::replay: empty binder");
  }
  if (capture_.load(std::memory_order_relaxed) != nullptr) {
    throw std::logic_error(
        "oss::Runtime::replay: cannot replay inside a capture scope");
  }
  const std::size_t n = graph.tasks_.size();
  if (n == 0) return;

  // Thread-local scratch (capacity survives across replays, and two threads
  // replaying disjoint graphs concurrently never share a buffer): the
  // warmed steady state allocates nothing here.
  static thread_local std::vector<TaskPtr> tl_created;
  static thread_local std::vector<TaskPtr> tl_ready;
  std::vector<TaskPtr>& created = tl_created;
  std::vector<TaskPtr>& ready = tl_ready;
  created.clear();
  ready.clear();
  created.reserve(n);
  ready.reserve(n);

  // Phase 1: create every task, pre-wired from the frozen structure — no
  // DepDomain shard is ever visited (no interval lookup, no shard lock,
  // no register_task).  The per-task shared counters are paid once per
  // replay: n ids reserved in one add, n children and n pending tasks
  // added before the first task exists, pool hits added after the loop.
  //
  // Each task's `preds` is stored as its wired in-degree, with no spawn
  // guard, and successor lists are filled with plain writes (no succ_mu_).
  // That is safe because nothing is published before phase 2: every task
  // an executor can reach lies downstream of a root, every root reaches an
  // executor through publish_ready_batch's queue push (a release the
  // popping worker acquires) or is run by this thread, and the finishers'
  // acq_rel decrements carry that order down each chain.  So every
  // phase-1 write happens-before any execution.
  const int worker = (Runtime::current() == this) ? Runtime::current_worker()
                                                  : -1;
  const std::uint64_t first_id =
      next_task_id_.fetch_add(n, std::memory_order_relaxed) + 1;
  root_ctx_->spawned.fetch_add(n, std::memory_order_acq_rel);
  spawned_.fetch_add(n, std::memory_order_acq_rel);
  std::uint64_t recycled = 0;
  try {
    // Everything that can throw (the binder, the pool or the allocator)
    // happens in this loop, before any task holds a reference to another.
    for (std::size_t i = 0; i < n; ++i) {
      const ReplayGraph::TaskRec& rec = graph.tasks_[i];
      Task::Fn fn = binder(i);
      std::string label = rec.label; // copied first: prepare cannot throw
      TaskPtr task;
      if (cfg_.pool) {
        const pool::AcquireResult a = pool::acquire();
        recycled += a.recycled ? 1 : 0;
        a.task->prepare(first_id + i, std::move(fn), root_ctx_,
                        std::move(label));
        task = TaskPtr::adopt(a.task);
      } else {
        task = TaskPtr::adopt(new Task(first_id + i, std::move(fn),
                                       AccessList{}, root_ctx_,
                                       std::move(label)));
      }
      task->set_priority(rec.priority);
      // The interned label hash travels with the graph: a warmed replay
      // loop performs zero TraceSystem/ProfSystem::intern calls
      // (test_replay.cpp asserts this through the intern_calls counters).
      task->set_trace_label(rec.trace_label);
      if (prof_) task->set_spawn_ts(ProfSystem::clock());
      for (std::uint32_t k = rec.lock_begin; k < rec.lock_end; ++k) {
        task->add_exclusion_lock(graph.locks_[k]);
      }
      if (rec.home_node >= 0 && !topo_.single_node()) {
        task->set_home_node(rec.home_node, rec.home_soft);
      }
      task->preds.store(static_cast<int>(rec.pred_end - rec.pred_begin),
                        std::memory_order_relaxed);
      // Sized here so the wiring below cannot allocate, hence cannot throw.
      task->successors.reserve(rec.succ_count);
      created.push_back(std::move(task));
    }
    if (graph_) {
      for (const TaskPtr& t : created) graph_->add_node(t->id(), t->label());
      for (const ReplayGraph::EdgeRec& e : graph.edges_) {
        graph_->add_edge(created[e.from]->id(), created[e.to]->id(),
                         static_cast<DepKind>(e.kind));
      }
    }
  } catch (...) {
    // Nothing was published or wired: each task drops its only reference
    // and recycles unrun, and the spawn counts added above are balanced
    // (the counters only grow, so the unrun tasks count as retired).
    created.clear();
    retired_.fetch_add(n, std::memory_order_acq_rel);
    root_ctx_->retired.fetch_add(n, std::memory_order_acq_rel);
    throw;
  }
  if (cfg_.pool) stats_.add_pool_acquires(recycled, n - recycled);

  // Wiring: a task is referenced by `created` and by one successor-list
  // entry per wired predecessor, so its refcount is set to that total and
  // the entries adopt their references instead of retaining one each.
  for (std::size_t i = 0; i < n; ++i) {
    const ReplayGraph::TaskRec& rec = graph.tasks_[i];
    Task* const t = created[i].get();
    t->preset_refs(1 + rec.pred_end - rec.pred_begin);
    for (std::uint32_t k = rec.pred_begin; k < rec.pred_end; ++k) {
      created[graph.pred_idx_[k]]->successors.push_back(TaskPtr::adopt(t));
    }
  }

  // Edge totals were counted once at capture; a replay adds them in four
  // bulk adds instead of one sink callback per edge.
  stats_.add_edges(graph.kind_counts_[0], graph.kind_counts_[1],
                   graph.kind_counts_[2], graph.kind_counts_[3]);
  stats_.on_replay(n);

  // Phase 2: mark the roots Ready and batch-publish them.  On a worker
  // thread the first root is kept instead when the successor hand-off
  // rule allows it (Scheduler::keep_unblocked): this thread wrote every
  // task object, so the chain it starts runs from its own cache, and no
  // worker is woken for a root this thread would otherwise wait on.
  TaskPtr kept;
  for (std::size_t i = 0; i < n; ++i) {
    TaskPtr& t = created[i];
    const ReplayGraph::TaskRec& rec = graph.tasks_[i];
    const bool is_root = rec.pred_begin == rec.pred_end;
    if (is_root) {
      t->set_state(TaskState::Ready);
      // Ready at submission: no dependency wait (ready_ts == spawn_ts).
      if (prof_) t->set_ready_ts(t->spawn_ts());
    }
    if (trace_) trace_->emit_spawn(t->id(), t->trace_label(), is_root);
    if (!is_root) continue;
    const bool first_root = !kept && ready.empty();
    if (first_root && scheduler_->keep_unblocked(t, worker)) {
      kept = std::move(t);
    } else {
      ready.push_back(std::move(t));
    }
  }
  publish_ready_batch(ready, worker);
  // A body run below may replay too, on this thread's scratch.
  created.clear();
  ready.clear();

  // Run the kept root and every successor its chain keeps, accounted as
  // local pops (next_task), before returning: replay() on a worker is a
  // task scheduling point.
  while (kept) {
    TaskPtr t = next_task(kept, worker);
    kept = execute(t, worker);
  }
}

} // namespace oss
