// replay.hpp — graph capture and replay (oss::replay, docs/replay.md).
//
// Iterative workloads (the paper's pipelines, PopART-style op graphs) run
// the *same* task graph every iteration, yet each iteration pays sharded
// interval-store dependency resolution from scratch.  This subsystem memoizes
// one iteration's resolved structure and re-submits it as an array walk:
//
//   oss::GraphCapture cap(rt);          // capture scope opens
//   submit_iteration(rt);               //   spawns are recorded AND held
//   oss::ReplayGraph g = cap.finish();  // scope closes; iteration runs
//   rt.taskwait();
//
//   for (int it = 1; it < n; ++it) {
//     rt.replay(g, binder);             // no DepDomain shard is touched
//     rt.taskwait();
//   }
//
// Capture semantics: every task spawned inside the scope receives an extra
// *hold* predecessor, so nothing executes until `finish()` — every producer
// is still live when its consumers register, which makes the discovered
// edge multiset the full structural graph, deterministic on any machine and
// thread count.  `finish()` freezes the structure into a ReplayGraph (flat
// task table + CSR lists of the transitively reduced edges) and releases
// the held iteration through the normal readiness path.
//
// Replay semantics: `Runtime::replay(g, binder)` re-submits the whole graph
// without touching any dependency shard — tasks come from the pool with
// their predecessor counts pre-stored and successor lists pre-wired from
// the CSR arrays, and ready roots are batch-enqueued through the node-aware
// wakeup path — except, on a worker thread, the first root, which the
// replaying thread runs itself with the chain it keeps before returning
// (when Scheduler::keep_unblocked allows it).  `binder(i)` supplies the
// body for task index `i` (capture order) on every replay, so buffers/frame
// data can change per iteration.
//
// A capture scope is single-threaded by contract: only the capturing thread
// may spawn between construction and finish().  Tasks spawned during
// capture must be deferred root-context tasks (no `if(0)`, no TaskGroup,
// no nested spawns — nothing executes inside the scope anyway), and every
// dependency must point at another captured task; a dependency on an
// unfinished *pre-capture* task throws at capture time, because replay
// could not reproduce that edge.  See docs/replay.md for the full binder
// contract and the list of things that invalidate a captured graph.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "ompss/graph_tables.hpp"
#include "ompss/task.hpp"

namespace oss {

class Runtime;
class GraphCapture;

/// Immutable memoized iteration structure: a flat task table (label,
/// interned trace label, priority, resolved home node, predecessor count)
/// plus the captured edge multiset and, as CSR predecessor lists, its
/// transitive reduction — the edges a replay actually wires.  Produced by
/// GraphCapture::finish(), consumed by Runtime::replay().  Cheap to move,
/// expensive to copy (copying is allowed — e.g. to replay the same shape
/// against disjoint buffer sets from several threads).
class ReplayGraph {
 public:
  ReplayGraph() = default;

  /// True when this graph came out of a successful capture.
  [[nodiscard]] bool valid() const noexcept { return owner_ != nullptr; }

  /// Number of captured tasks.
  [[nodiscard]] std::size_t size() const noexcept { return tasks_.size(); }

  /// Number of captured dependency edges (all hazard kinds).
  [[nodiscard]] std::size_t edge_count() const noexcept {
    return edges_.size();
  }

  /// Number of edges a replay wires: the captured edges minus duplicates
  /// and every edge another path already implies (the transitive
  /// reduction, docs/replay.md).  At most edge_count().
  [[nodiscard]] std::size_t wired_edge_count() const noexcept {
    return pred_idx_.size();
  }

  /// Predecessor indices replay wires for task `i` (its reduced in-edges),
  /// in descending order.
  [[nodiscard]] std::span<const std::uint32_t> wired_predecessors(
      std::size_t i) const {
    return {pred_idx_.data() + tasks_[i].pred_begin,
            pred_idx_.data() + tasks_[i].pred_end};
  }

  /// Label of task `i` in capture (= replay) order.
  [[nodiscard]] const std::string& label(std::size_t i) const {
    return tasks_[i].label;
  }

  /// Captured predecessor count of task `i` (its in-degree; 0 = root).
  [[nodiscard]] std::size_t pred_count(std::size_t i) const noexcept {
    return tasks_[i].preds;
  }

  /// The captured edges as (producer index, consumer index, kind) in
  /// discovery order — parity tests compare this multiset against a fresh
  /// resolution of the same program.
  struct Edge {
    std::uint32_t from;
    std::uint32_t to;
    DepKind kind;
    friend bool operator==(const Edge&, const Edge&) = default;
  };
  [[nodiscard]] std::vector<Edge> edges() const;

  /// The capture-run node/edge tables (capture-run task ids), the same
  /// GraphTables structure the GraphRecorder renders — to_dot() is the
  /// byte-identical DOT rendering of the captured iteration.
  [[nodiscard]] const GraphTables& tables() const noexcept { return tables_; }
  [[nodiscard]] std::string to_dot() const { return tables_.to_dot(); }

 private:
  friend class GraphCapture;
  friend class Runtime;

  struct TaskRec {
    std::string label;
    std::uint32_t trace_label = 0; ///< interned at capture; replay never
                                   ///< re-interns (docs/replay.md)
    int priority = 0;
    int home_node = -1;            ///< resolved NUMA home (-1 = none)
    bool home_soft = false;
    std::uint32_t preds = 0;       ///< in-degree over captured edges
    std::uint32_t pred_begin = 0;  ///< CSR range into pred_idx_ (wired)
    std::uint32_t pred_end = 0;
    std::uint32_t succ_count = 0;  ///< wired out-degree
    std::uint32_t lock_begin = 0;  ///< CSR range into locks_
    std::uint32_t lock_end = 0;
  };
  struct EdgeRec {
    std::uint32_t from;
    std::uint32_t to;
    std::uint8_t kind;
  };

  std::vector<TaskRec> tasks_;          ///< capture order
  std::vector<std::uint32_t> pred_idx_; ///< CSR reduced predecessor indices
  std::vector<EdgeRec> edges_;          ///< discovery order
  /// Commutative-region exclusion locks carried over from capture, so a
  /// replayed commutative group keeps its mutual exclusion without any
  /// shard visit.  The shared_ptrs keep the region mutexes alive across
  /// runtime-internal pruning.
  std::vector<std::shared_ptr<std::mutex>> locks_;
  std::uint64_t kind_counts_[4] = {0, 0, 0, 0}; ///< edges per DepKind
  GraphTables tables_;                  ///< capture-run ids (DOT/diagnostics)
  Runtime* owner_ = nullptr;            ///< runtime that captured the graph
  std::uint64_t owner_serial_ = 0;      ///< its construction serial — a
                                        ///< restarted runtime at the same
                                        ///< address is still rejected
};

/// RAII capture scope.  Opens on construction (at most one per runtime at a
/// time), records and holds every task spawned from the capturing thread,
/// and releases the held iteration at finish() — or at destruction, so an
/// abandoned scope (exception unwinding) still runs the submitted work
/// instead of deadlocking the runtime.
class GraphCapture {
 public:
  /// Throws std::logic_error if another capture is already open on `rt`.
  explicit GraphCapture(Runtime& rt);

  /// Closes the scope if finish() was never called and releases the held
  /// tasks (the captured structure is discarded in that case).
  ~GraphCapture();

  GraphCapture(const GraphCapture&) = delete;
  GraphCapture& operator=(const GraphCapture&) = delete;

  /// Closes the scope, releases the held iteration through the normal
  /// readiness path (the capture run executes now), and returns the frozen
  /// graph.  Callable once; throws std::logic_error on a second call.
  /// The caller still owns the usual taskwait()/barrier() for the capture
  /// run itself.
  ReplayGraph finish();

  /// Tasks recorded so far.
  [[nodiscard]] std::size_t captured() const noexcept { return held_.size(); }

 private:
  friend class Runtime;

  // Spawn-path hooks, called by Runtime::spawn_task on the capturing
  // thread: on_spawn adds the hold predecessor and assigns the capture
  // index (before registration, so on_edge can resolve both endpoints);
  // on_edge records one discovered edge, throwing if the producer is not
  // part of the capture.
  void on_spawn(const TaskPtr& t);
  void on_edge(const TaskPtr& from, const TaskPtr& to, DepKind kind);

  /// Builds g's wired structure, the reduced predecessor CSR, from the
  /// captured edges (finish()).
  void wire_reduced(ReplayGraph& g) const;

  Runtime& rt_;
  bool finished_ = false;
  std::vector<TaskPtr> held_;  ///< capture order; each holds one hold-pred
  std::unordered_map<std::uint64_t, std::uint32_t> index_; ///< id → index
  std::vector<ReplayGraph::EdgeRec> edges_;
  std::uint64_t kind_counts_[4] = {0, 0, 0, 0};
  GraphTables tables_;
};

/// Binder contract (docs/replay.md): called once per task per replay, in
/// capture order, from the replaying thread; returns the body to run for
/// task index `i` this iteration.  Bodies must not assume dependency
/// coverage beyond the captured structure (replayed tasks declare no
/// accesses — taskwait_on regions does not see them; taskwait()/barrier()
/// and handle waits do).
using ReplayBinder = std::function<Task::Fn(std::size_t)>;

} // namespace oss
