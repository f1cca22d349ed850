// oss::replay (graph capture + replay, docs/replay.md):
//
//   * edge-multiset parity — the captured structure must equal a direct,
//     deterministic DepDomain registration of the same program, across
//     OSS_DEP_SHARDS ∈ {1, 8} × OSS_POOL ∈ {on, off}
//   * the dep-domain bypass proof — a warmed replay performs zero
//     register_task calls (the dep_single/multi_shard counters stay flat)
//   * binder rebinding, throwing bodies, runtime-restart rejection,
//     concurrent replay of disjoint graphs, capture-scope contract errors,
//     and a throwing binder or failed allocation mid-submission leaving
//     nothing pending
//   * the run-first rule — replay() on a worker runs the first root and
//     its kept chain before returning, unless fifo, a priority root or a
//     non-worker caller rules it out
//   * observability parity — replayed tasks still emit Spawn/Ready/RunSpan
//     trace events and profile rows while performing zero label interning
//   * the wired structure — the transitive reduction keeps reachability
//     and serial results on random programs, and wires one edge per link
//     of the over-declared opgraph chain
//   * the zero-allocation proof for the warmed replay loop (same operator
//     new interposer as test_task_pool.cpp; compiled out under sanitizers)
#include "ompss/ompss.hpp"

#include <gtest/gtest.h>

#include "apps/opgraph/opgraph_app.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "env_config.hpp"

#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
#define OSS_REPLAY_TEST_SANITIZED 1
#endif
#if defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
#define OSS_REPLAY_TEST_SANITIZED 1
#endif
#endif

namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
std::atomic<bool> g_counting{false};
/// Failure injection: the calling thread's throwing operator new fails
/// once this many further allocations have succeeded (-1 = never).
thread_local long t_fail_after = -1;

void count_alloc() {
  if (g_counting.load(std::memory_order_relaxed))
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
}
} // namespace

#ifndef OSS_REPLAY_TEST_SANITIZED

namespace {
void* counted_alloc(std::size_t n) {
  count_alloc();
  if (t_fail_after >= 0 && t_fail_after-- == 0) throw std::bad_alloc();
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t n, std::size_t align) {
  count_alloc();
  if (align < sizeof(void*)) align = sizeof(void*);
  void* p = nullptr;
  if (posix_memalign(&p, align, n ? n : align) != 0) throw std::bad_alloc();
  return p;
}
} // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  count_alloc();
  return std::malloc(n ? n : 1);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  count_alloc();
  return std::malloc(n ? n : 1);
}
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_aligned_alloc(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return counted_aligned_alloc(n, static_cast<std::size_t>(a));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

#endif // !OSS_REPLAY_TEST_SANITIZED

namespace {

using oss::Access;
using oss::DepKind;
using oss::GraphCapture;
using oss::ReplayGraph;
using oss::Runtime;
using oss::RuntimeConfig;

constexpr bool interposer_active() {
#ifdef OSS_REPLAY_TEST_SANITIZED
  return false;
#else
  return true;
#endif
}

template <class F>
std::uint64_t count_allocs(F&& fn) {
  g_alloc_count.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_seq_cst);
  fn();
  g_counting.store(false, std::memory_order_seq_cst);
  return g_alloc_count.load(std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Parity program: a heterogeneous access mix over a few variables —
// writers, double readers, read-modify-writers, a fan-in reduction, and a
// commutative pair — declared once and driven through both the direct
// DepDomain path (deterministic reference) and the capture path.
// ---------------------------------------------------------------------------

struct ProgramTask {
  std::string label;
  oss::AccessList accesses;
};

struct ParityBuffers {
  std::array<double, 4> x{};
  double sum = 0;
  double comm = 0;
};

std::vector<ProgramTask> parity_program(ParityBuffers& b) {
  std::vector<ProgramTask> prog;
  for (std::size_t v = 0; v < b.x.size(); ++v) {
    prog.push_back({"w", {oss::out(b.x[v])}});
    prog.push_back({"r1", {oss::in(b.x[v])}});
    prog.push_back({"r2", {oss::in(b.x[v])}});
    prog.push_back({"w2", {oss::inout(b.x[v])}});
  }
  oss::AccessList fan;
  for (std::size_t v = 0; v < b.x.size(); ++v) fan.push_back(oss::in(b.x[v]));
  fan.push_back(oss::out(b.sum));
  prog.push_back({"fan", std::move(fan)});
  prog.push_back({"c1", {oss::commutative(b.comm)}});
  prog.push_back({"c2", {oss::commutative(b.comm)}});
  return prog;
}

using EdgeTuple = std::tuple<std::uint32_t, std::uint32_t, int>;

/// Deterministic reference: registers the program straight into a fresh
/// DepDomain without ever finishing a task — exactly the situation the
/// capture hold-guard creates — and collects the discovered edge multiset
/// in program-index space.
std::vector<EdgeTuple> reference_edges(const std::vector<ProgramTask>& prog,
                                       std::size_t shards) {
  auto ctx = std::make_shared<oss::TaskContext>(shards);
  std::vector<oss::TaskPtr> tasks;
  std::unordered_map<std::uint64_t, std::uint32_t> index;
  std::vector<EdgeTuple> edges;
  const oss::EdgeSink sink = [&](const oss::TaskPtr& from,
                                 const oss::TaskPtr& to, DepKind kind) {
    edges.emplace_back(index.at(from->id()), index.at(to->id()),
                       static_cast<int>(kind));
  };
  for (std::size_t i = 0; i < prog.size(); ++i) {
    // Null parent context: the domain keeps TaskPtr references, and a task
    // holding its context back would be a leak cycle in this harness.
    oss::TaskPtr t = oss::make_task(i + 1, [] {}, prog[i].accesses,
                                    oss::ContextPtr{}, prog[i].label);
    index.emplace(t->id(), static_cast<std::uint32_t>(i));
    t->preds.store(1, std::memory_order_relaxed); // registration guard
    ctx->domain().register_task(t, sink);
    tasks.push_back(std::move(t));
  }
  std::sort(edges.begin(), edges.end());
  return edges;
}

/// The same program spawned through the builder inside a capture scope;
/// returns the frozen graph's edge multiset (capture-index space == program
/// index space, spawns happen in program order).
std::vector<EdgeTuple> captured_edges(const std::vector<ProgramTask>& prog,
                                      RuntimeConfig cfg) {
  Runtime rt(cfg);
  GraphCapture cap(rt);
  for (const ProgramTask& pt : prog) {
    oss::TaskSpec spec;
    for (const Access& a : pt.accesses) spec.accesses.push_back(a);
    spec.label = pt.label;
    rt.spawn_task(std::move(spec), [] {});
  }
  ReplayGraph g = cap.finish();
  rt.taskwait();
  std::vector<EdgeTuple> edges;
  for (const ReplayGraph::Edge& e : g.edges()) {
    edges.emplace_back(e.from, e.to, static_cast<int>(e.kind));
  }
  std::sort(edges.begin(), edges.end());
  return edges;
}

RuntimeConfig replay_config(std::size_t threads, std::size_t shards,
                            bool pool) {
  RuntimeConfig cfg = oss_test::env_config(threads);
  cfg.dep_shards = shards;
  cfg.pool = pool;
  return cfg;
}

// ---------------------------------------------------------------------------
// Edge-multiset parity across the shard × pool matrix
// ---------------------------------------------------------------------------

TEST(Replay, EdgeMultisetParityAcrossShardAndPoolConfigs) {
  ParityBuffers b;
  const std::vector<ProgramTask> prog = parity_program(b);
  const std::vector<EdgeTuple> ref = reference_edges(prog, 1);
  ASSERT_FALSE(ref.empty());
  for (const std::size_t shards : {std::size_t{1}, std::size_t{8}}) {
    for (const bool pool : {true, false}) {
      SCOPED_TRACE("shards=" + std::to_string(shards) +
                   " pool=" + std::to_string(pool));
      // The reference itself must not depend on the config either.
      EXPECT_EQ(reference_edges(prog, shards), ref);
      EXPECT_EQ(captured_edges(prog, replay_config(2, shards, pool)), ref);
    }
  }
}

TEST(Replay, CapturedGraphStructureMatchesProgram) {
  ParityBuffers b;
  const std::vector<ProgramTask> prog = parity_program(b);
  Runtime rt(replay_config(1, 8, true));
  GraphCapture cap(rt);
  for (const ProgramTask& pt : prog) {
    oss::TaskSpec spec;
    for (const Access& a : pt.accesses) spec.accesses.push_back(a);
    spec.label = pt.label;
    rt.spawn_task(std::move(spec), [] {});
  }
  EXPECT_EQ(cap.captured(), prog.size());
  ReplayGraph g = cap.finish();
  rt.taskwait();
  ASSERT_EQ(g.size(), prog.size());
  for (std::size_t i = 0; i < prog.size(); ++i) {
    EXPECT_EQ(g.label(i), prog[i].label);
  }
  // In-degrees must account for every captured edge.
  std::size_t pred_sum = 0;
  for (std::size_t i = 0; i < g.size(); ++i) pred_sum += g.pred_count(i);
  EXPECT_EQ(pred_sum, g.edge_count());
  // The capture tables render like any recorded graph.
  EXPECT_NE(g.to_dot().find("digraph"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Replay execution: bypass proof, data parity, binder rebinding
// ---------------------------------------------------------------------------

TEST(Replay, WarmedReplayBypassesDepDomainAndCountsReplayedTasks) {
  Runtime rt(replay_config(2, 8, true));
  std::array<std::uint64_t, 4> a{}, c{};
  ReplayGraph g;
  {
    GraphCapture cap(rt);
    for (std::size_t i = 0; i < a.size(); ++i) {
      rt.task("produce").out(a[i]).spawn([&a, i] { a[i] += 1; });
      rt.task("consume").in(a[i]).out(c[i]).spawn([&a, &c, i] {
        c[i] = a[i] * 10;
      });
    }
    g = cap.finish();
  }
  rt.taskwait();
  const auto binder = [&](std::size_t i) -> oss::Task::Fn {
    const std::size_t slot = i / 2;
    if (i % 2 == 0) return [&a, slot] { a[slot] += 1; };
    return [&a, &c, slot] { c[slot] = a[slot] * 10; };
  };

  rt.replay(g, binder); // warm the pool / scratch
  rt.taskwait();

  const oss::StatsSnapshot before = rt.stats();
  rt.replay(g, binder);
  rt.taskwait();
  const oss::StatsSnapshot after = rt.stats();

  // The bypass proof: a warmed replay registers nothing in any dependency
  // shard — both shard counters stay exactly flat — while the replay
  // counters account for every submitted task.
  EXPECT_EQ(after.dep_single_shard, before.dep_single_shard);
  EXPECT_EQ(after.dep_multi_shard, before.dep_multi_shard);
  EXPECT_EQ(after.replayed_tasks, before.replayed_tasks + g.size());
  EXPECT_EQ(after.replay_graphs, before.replay_graphs + 1);
  EXPECT_EQ(after.tasks_spawned, before.tasks_spawned + g.size());
  EXPECT_EQ(after.tasks_executed, before.tasks_executed + g.size());
  // Bulk edge accounting: one capture's worth of edges per replay.
  EXPECT_EQ(after.edges_total(), before.edges_total() + g.edge_count());

  // Data parity: capture + 2 replays = every producer ran 3 times, and
  // each consumer observed its producer's current value (the dependency
  // held on every replay).
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], 3u);
    EXPECT_EQ(c[i], 30u);
  }
}

TEST(Replay, BinderRebindsPerIterationData) {
  Runtime rt(oss_test::env_config(2));
  std::array<int, 8> out{};
  int scale = 1;
  ReplayGraph g;
  {
    GraphCapture cap(rt);
    for (std::size_t i = 0; i < out.size(); ++i) {
      rt.task("fill").out(out[i]).spawn([&out, i, scale] {
        out[i] = static_cast<int>(i) * scale;
      });
    }
    g = cap.finish();
  }
  rt.taskwait();
  for (std::size_t i = 0; i < out.size(); ++i) {
    ASSERT_EQ(out[i], static_cast<int>(i));
  }
  // Each replay re-binds the bodies against the *current* scale — replay
  // reuses structure, never stale closures.
  for (int s : {10, 100}) {
    scale = s;
    rt.replay(g, [&](std::size_t i) -> oss::Task::Fn {
      return [&out, i, s = scale] { out[i] = static_cast<int>(i) * s; };
    });
    rt.taskwait();
    for (std::size_t i = 0; i < out.size(); ++i) {
      EXPECT_EQ(out[i], static_cast<int>(i) * s);
    }
  }
}

TEST(Replay, ReplayedDependenciesConstrainExecutionOrder) {
  // A strict chain: every link checks its predecessor's value is already
  // in place.  Any broken replay wiring shows up as a zero read.
  Runtime rt(oss_test::env_config(4));
  constexpr int kLen = 64;
  std::array<std::uint64_t, kLen> v{};
  ReplayGraph g;
  {
    GraphCapture cap(rt);
    for (int i = 0; i < kLen; ++i) {
      if (i == 0) {
        rt.task("head").out(v[0]).spawn([&v] { v[0] += 1; });
      } else {
        rt.task("link").in(v[i - 1]).out(v[i]).spawn(
            [&v, i] { v[i] = v[i - 1] + 1; });
      }
    }
    g = cap.finish();
  }
  rt.taskwait();
  const auto binder = [&](std::size_t i) -> oss::Task::Fn {
    if (i == 0) return [&v] { v[0] += 1; };
    return [&v, i] { v[i] = v[i - 1] + 1; };
  };
  for (int r = 0; r < 10; ++r) {
    rt.replay(g, binder);
    rt.taskwait();
  }
  // 11 total runs of the chain; head accumulated once per run.
  for (int i = 0; i < kLen; ++i) {
    EXPECT_EQ(v[i], static_cast<std::uint64_t>(11 + i));
  }
}

TEST(Replay, CommutativeExclusionSurvivesReplay) {
  // The captured commutative group keeps mutual exclusion on replay: the
  // unsynchronized ++ below is exactly the data race the exclusion lock
  // must prevent (the TSan leg would flag a broken carry-over even when
  // the final count happens to be right).
  Runtime rt(oss_test::env_config(4));
  constexpr int kTasks = 16;
  std::uint64_t counter = 0;
  ReplayGraph g;
  {
    GraphCapture cap(rt);
    for (int i = 0; i < kTasks; ++i) {
      oss::TaskSpec spec;
      spec.accesses.push_back(oss::commutative(counter));
      spec.label = "comm";
      rt.spawn_task(std::move(spec), [&counter] { ++counter; });
    }
    g = cap.finish();
  }
  rt.taskwait();
  const auto binder = [&](std::size_t) -> oss::Task::Fn {
    return [&counter] { ++counter; };
  };
  constexpr int kReplays = 8;
  for (int r = 0; r < kReplays; ++r) {
    rt.replay(g, binder);
    rt.taskwait();
  }
  EXPECT_EQ(counter, static_cast<std::uint64_t>(kTasks * (kReplays + 1)));
}

// ---------------------------------------------------------------------------
// Failure modes
// ---------------------------------------------------------------------------

TEST(Replay, ThrowingReplayedTaskSurfacesAndRuntimeStaysUsable) {
  Runtime rt(oss_test::env_config(2));
  std::array<int, 3> out{};
  ReplayGraph g;
  {
    GraphCapture cap(rt);
    for (std::size_t i = 0; i < out.size(); ++i) {
      rt.task("t").out(out[i]).spawn([&out, i] { out[i] = 1; });
    }
    g = cap.finish();
  }
  rt.taskwait();

  rt.replay(g, [&](std::size_t i) -> oss::Task::Fn {
    if (i == 1) return [] { throw std::runtime_error("replayed boom"); };
    return [&out, i] { out[i] = 2; };
  });
  EXPECT_THROW(rt.taskwait(), std::runtime_error);

  // The runtime survives: ordinary spawns and further replays both work.
  int x = 0;
  rt.task("after").out(x).spawn([&x] { x = 7; });
  rt.taskwait();
  EXPECT_EQ(x, 7);
  rt.replay(g, [&](std::size_t i) -> oss::Task::Fn {
    return [&out, i] { out[i] = 3; };
  });
  rt.taskwait();
  for (int v : out) EXPECT_EQ(v, 3);
}

/// Captures one independent task per element of `out`, task `i`
/// incrementing `out[i]`.
ReplayGraph capture_independent(Runtime& rt, std::vector<int>& out) {
  GraphCapture cap(rt);
  for (std::size_t i = 0; i < out.size(); ++i) {
    rt.task("t").inout(out[i]).spawn([&out, i] { ++out[i]; });
  }
  ReplayGraph g = cap.finish();
  rt.taskwait();
  return g;
}

oss::Task::Fn increment(std::vector<int>& out, std::size_t i) {
  return [&out, i] { ++out[i]; };
}

TEST(Replay, ThrowingBinderLeavesRuntimeUsable) {
  Runtime rt(oss_test::env_config(2));
  std::vector<int> out(8, 0);
  const ReplayGraph g = capture_independent(rt, out);
  const oss::StatsSnapshot before = rt.stats();

  EXPECT_THROW(rt.replay(g,
                         [&](std::size_t i) -> oss::Task::Fn {
                           if (i == 3) throw std::runtime_error("binder");
                           return increment(out, i);
                         }),
               std::runtime_error);
  // Nothing was submitted: no task pending, nothing to wait for, no
  // replay counted, and the three bodies already bound never ran.
  EXPECT_EQ(rt.pending_tasks(), 0u);
  EXPECT_NO_THROW(rt.taskwait());
  EXPECT_EQ(rt.stats().replay_graphs, before.replay_graphs);
  EXPECT_EQ(rt.stats().tasks_spawned, before.tasks_spawned);
  for (int v : out) EXPECT_EQ(v, 1);

  rt.replay(g, [&](std::size_t i) { return increment(out, i); });
  rt.taskwait();
  for (int v : out) EXPECT_EQ(v, 2);
}

TEST(Replay, FailedAllocationDuringSubmissionLeavesRuntimeUsable) {
  if (!interposer_active()) {
    GTEST_SKIP() << "allocation interposer disabled under sanitizers";
  }
  // Without the pool every replayed task is one operator new, so the
  // fourth allocation of the submission fails with tasks 0-2 created.
  Runtime rt(replay_config(2, 8, false));
  std::vector<int> out(8, 0);
  const ReplayGraph g = capture_independent(rt, out);
  const auto binder = [&](std::size_t i) { return increment(out, i); };
  rt.replay(g, binder); // warm the replay scratch
  rt.taskwait();

  t_fail_after = 3;
  EXPECT_THROW(rt.replay(g, binder), std::bad_alloc);
  t_fail_after = -1;
  EXPECT_EQ(rt.pending_tasks(), 0u);
  EXPECT_NO_THROW(rt.taskwait());
  for (int v : out) EXPECT_EQ(v, 2);

  rt.replay(g, binder);
  rt.taskwait();
  for (int v : out) EXPECT_EQ(v, 3);
}

TEST(Replay, ReplayAfterRuntimeRestartIsRejected) {
  ReplayGraph g;
  {
    Runtime rt1(oss_test::env_config(1));
    GraphCapture cap(rt1);
    int y = 0;
    rt1.task("t").out(y).spawn([&y] { y = 1; });
    g = cap.finish();
    rt1.taskwait();
    EXPECT_TRUE(g.valid());
  }
  // A fresh runtime — even though rt1 is gone and the allocator may reuse
  // its address, the construction serial tells them apart.
  Runtime rt2(oss_test::env_config(1));
  const auto binder = [](std::size_t) -> oss::Task::Fn { return [] {}; };
  EXPECT_THROW(rt2.replay(g, binder), std::invalid_argument);
  // Invalid (default-constructed) graphs and empty binders are rejected
  // before any bookkeeping.
  EXPECT_THROW(rt2.replay(ReplayGraph{}, binder), std::invalid_argument);
}

TEST(Replay, CaptureScopeContractViolations) {
  Runtime rt(oss_test::env_config(1));
  GraphCapture cap(rt);
  // Only one scope per runtime at a time.
  EXPECT_THROW(GraphCapture second(rt), std::logic_error);
  // Undeferred (if(0)) tasks would deadlock on their own hold predecessor.
  int x = 0;
  oss::TaskSpec spec;
  spec.accesses.push_back(oss::out(x));
  spec.deferred = false;
  EXPECT_THROW(rt.spawn_task(std::move(spec), [&x] { x = 1; }),
               std::logic_error);
  ReplayGraph g = cap.finish();
  EXPECT_THROW(cap.finish(), std::logic_error);
  rt.taskwait();
}

TEST(Replay, AbandonedCaptureScopeStillRunsTheIteration) {
  Runtime rt(oss_test::env_config(2));
  std::atomic<int> ran{0};
  {
    GraphCapture cap(rt);
    for (int i = 0; i < 8; ++i) {
      rt.task("t").spawn([&ran] { ran.fetch_add(1); });
    }
    // No finish(): the scope is abandoned (as if unwinding), the captured
    // structure discarded — but the held tasks must still execute.
  }
  rt.taskwait();
  EXPECT_EQ(ran.load(), 8);
  // And the runtime accepts a new scope afterwards.  An empty capture is a
  // valid zero-task graph whose replay is a no-op.
  GraphCapture again(rt);
  ReplayGraph g = again.finish();
  EXPECT_TRUE(g.valid());
  EXPECT_EQ(g.size(), 0u);
  rt.replay(g, [](std::size_t) -> oss::Task::Fn { return [] {}; });
  rt.taskwait();
}

// ---------------------------------------------------------------------------
// Concurrency
// ---------------------------------------------------------------------------

TEST(Replay, ConcurrentReplayOfDisjointGraphs) {
  Runtime rt(oss_test::env_config(4));
  constexpr int kChain = 32;
  std::array<std::uint64_t, kChain> va{}, vb{};

  const auto capture_chain = [&](std::array<std::uint64_t, kChain>& v) {
    GraphCapture cap(rt);
    for (int i = 0; i < kChain; ++i) {
      if (i == 0) {
        rt.task("head").out(v[0]).spawn([&v] { v[0] += 1; });
      } else {
        rt.task("link").in(v[i - 1]).out(v[i]).spawn(
            [&v, i] { v[i] = v[i - 1] + 1; });
      }
    }
    ReplayGraph g = cap.finish();
    rt.taskwait();
    return g;
  };
  ReplayGraph ga = capture_chain(va);
  ReplayGraph gb = capture_chain(vb);

  const auto binder_for = [](std::array<std::uint64_t, kChain>& v) {
    return [&v](std::size_t i) -> oss::Task::Fn {
      if (i == 0) return [&v] { v[0] += 1; };
      return [&v, i] { v[i] = v[i - 1] + 1; };
    };
  };

  constexpr int kRounds = 4;
  for (int round = 0; round < kRounds; ++round) {
    // Two foreign threads submit their disjoint graphs concurrently; the
    // owning thread drains the round at the barrier.
    std::thread ta([&] { rt.replay(ga, binder_for(va)); });
    std::thread tb([&] { rt.replay(gb, binder_for(vb)); });
    ta.join();
    tb.join();
    rt.barrier();
  }
  for (int i = 0; i < kChain; ++i) {
    EXPECT_EQ(va[i], static_cast<std::uint64_t>(1 + kRounds + i));
    EXPECT_EQ(vb[i], static_cast<std::uint64_t>(1 + kRounds + i));
  }
}

// ---------------------------------------------------------------------------
// Observability: trace events, profile rows, zero interning
// ---------------------------------------------------------------------------

TEST(Replay, ReplayedTasksEmitTraceAndProfileWithoutInterning) {
  RuntimeConfig cfg = oss_test::env_config(2);
  cfg.trace_mode = oss::TraceMode::Full;
  cfg.prof = true;
  Runtime rt(cfg);
  constexpr std::size_t kTasks = 6;
  std::array<int, kTasks> out{};
  ReplayGraph g;
  {
    GraphCapture cap(rt);
    for (std::size_t i = 0; i < kTasks; ++i) {
      rt.task("replayed_op").out(out[i]).spawn([&out, i] { out[i] = 1; });
    }
    g = cap.finish();
  }
  rt.taskwait();
  const auto binder = [&](std::size_t i) -> oss::Task::Fn {
    return [&out, i] { out[i] = 2; };
  };
  rt.replay(g, binder); // warm
  rt.taskwait();

  oss::TraceSystem* trace = rt.trace_system();
  oss::ProfSystem* prof = rt.prof_system();
  ASSERT_NE(trace, nullptr);
  ASSERT_NE(prof, nullptr);

  const auto count_kinds = [&] {
    std::size_t spawn = 0, ready = 0, run = 0;
    for (const auto& m : trace->merged_events()) {
      if (m.ev.kind == oss::TraceEventKind::Spawn) ++spawn;
      if (m.ev.kind == oss::TraceEventKind::Ready) ++ready;
      if (m.ev.kind == oss::TraceEventKind::RunSpan) ++run;
    }
    return std::tuple{spawn, ready, run};
  };

  const auto [spawn0, ready0, run0] = count_kinds();
  const std::uint64_t interns0 = trace->intern_calls() + prof->intern_calls();
  const std::uint64_t profile_count0 = rt.profile().tasks;

  rt.replay(g, binder);
  rt.taskwait();

  const auto [spawn1, ready1, run1] = count_kinds();
  // Replayed tasks show up in the trace like any other task: one Spawn per
  // task, one RunSpan per execution, Ready transitions for the non-roots
  // (roots are ready at submission — their Spawn event carries the flag).
  EXPECT_EQ(spawn1, spawn0 + kTasks);
  EXPECT_EQ(run1, run0 + kTasks);
  EXPECT_GE(ready1, ready0);
  // ...and in the profile.
  EXPECT_EQ(rt.profile().tasks, profile_count0 + kTasks);
  const auto labels = rt.profile().labels;
  const auto it = std::find_if(labels.begin(), labels.end(), [](const auto& l) {
    return l.name == "replayed_op";
  });
  ASSERT_NE(it, labels.end());
  EXPECT_GE(it->count, kTasks * 3); // capture + 2 replays

  // The zero-interning proof: replay reuses the hash interned at capture —
  // a warmed replay (submission + execution + retirement) performs zero
  // TraceSystem/ProfSystem::intern calls.
  EXPECT_EQ(trace->intern_calls() + prof->intern_calls(), interns0);
}

// ---------------------------------------------------------------------------
// End-to-end anchor: the opgraph app (exact uint64 arithmetic — checksums
// must be *bit-identical* across seq / fresh-resolution / replay at every
// thread count).  The runtimes inside the app read OSS_DEP_SHARDS /
// OSS_POOL etc. from the environment, so the run_matrix.sh phase-2 sweep
// fuzzes this parity across the whole shards × pool × scheduler matrix.
// ---------------------------------------------------------------------------

TEST(Replay, OpgraphChecksumParityAndBypassAcrossVariants) {
  const apps::OpGraphWorkload w =
      apps::OpGraphWorkload::make(benchcore::Scale::Tiny);
  const std::uint64_t ref = apps::opgraph_seq(w);
  const auto ops = static_cast<std::uint64_t>(w.ops_per_iteration());
  const auto iters = static_cast<std::uint64_t>(w.iters);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    oss::StatsSnapshot fresh{}, replay{};
    EXPECT_EQ(apps::opgraph_ompss(w, threads, &fresh), ref);
    EXPECT_EQ(apps::opgraph_replay(w, threads, &replay), ref);
    // Fresh resolution registers every task of every iteration; replay
    // registers only the capture iteration and replays the rest.
    EXPECT_EQ(fresh.replayed_tasks, 0u);
    EXPECT_EQ(fresh.dep_single_shard + fresh.dep_multi_shard, ops * iters);
    EXPECT_EQ(replay.replayed_tasks, ops * (iters - 1));
    EXPECT_EQ(replay.replay_graphs, iters - 1);
    EXPECT_EQ(replay.dep_single_shard + replay.dep_multi_shard, ops);
    EXPECT_EQ(replay.tasks_executed, ops * iters);
  }
}

TEST(Replay, OpgraphDeclaresExactlyItsOperandColumns) {
  // Op (l, j) reads columns j and neighbor(l, j) of layer l-1 and writes
  // column j of layer l, n elements each.  On one thread nothing runs
  // before the barrier, so every hazard inside an iteration becomes an
  // edge: exactly two RAW edges per op of layers 1.., and no WAW or WAR
  // (the previous iteration has retired at its barrier; layer 0 reads the
  // input the controlling thread wrote).  An access declared wider than
  // its column overlaps its neighbours and adds WAW/RAW edges.
  const apps::OpGraphWorkload w =
      apps::OpGraphWorkload::make(benchcore::Scale::Tiny);
  oss::StatsSnapshot st{};
  EXPECT_EQ(apps::opgraph_ompss(w, 1, &st), apps::opgraph_seq(w));
  const auto expected_raw = static_cast<std::uint64_t>(w.iters) * 2 *
                            static_cast<std::uint64_t>(w.width) *
                            static_cast<std::uint64_t>(w.layers - 1);
  EXPECT_EQ(st.edges_raw, expected_raw);
  EXPECT_EQ(st.edges_waw, 0u);
  EXPECT_EQ(st.edges_war, 0u);
}

// ---------------------------------------------------------------------------
// Wired structure: the transitive reduction of the captured edges
// ---------------------------------------------------------------------------

/// Reachability closure of a DAG whose edges run from lower to higher
/// index: reach[u][v] is true when a non-empty path u→v exists.
using Reach = std::vector<std::vector<bool>>;
Reach closure(std::size_t n,
              const std::vector<std::pair<std::uint32_t, std::uint32_t>>& es) {
  std::vector<std::vector<std::uint32_t>> succ(n);
  for (const auto& [from, to] : es) succ[from].push_back(to);
  Reach reach(n, std::vector<bool>(n, false));
  for (std::size_t u = n; u-- > 0;) {
    for (const std::uint32_t v : succ[u]) {
      reach[u][v] = true;
      for (std::size_t w = 0; w < n; ++w) {
        if (reach[v][w]) reach[u][w] = true;
      }
    }
  }
  return reach;
}

/// One task of a random program: up to three accesses over distinct
/// variables plus an optional explicit edge to an earlier task.
struct RandomTask {
  std::vector<std::pair<int, char>> ops; ///< (variable, i/o/x/c)
  int after = -1;
};

std::vector<RandomTask> random_program(std::uint64_t seed, int tasks,
                                       int vars) {
  std::mt19937_64 rng(seed);
  std::vector<RandomTask> prog(static_cast<std::size_t>(tasks));
  for (int i = 0; i < tasks; ++i) {
    RandomTask& t = prog[static_cast<std::size_t>(i)];
    const int n = 1 + static_cast<int>(rng() % 3);
    for (int k = 0; k < n; ++k) {
      const int v = static_cast<int>(rng() % static_cast<std::uint64_t>(vars));
      bool dup = false;
      for (const auto& op : t.ops) dup = dup || op.first == v;
      if (dup) continue;
      t.ops.emplace_back(v, "ioxc"[rng() % 4]);
    }
    if (i > 0 && rng() % 5 == 0) {
      t.after = static_cast<int>(rng() % static_cast<std::uint64_t>(i));
    }
  }
  return prog;
}

/// Task `i`'s body in iteration `it`: reads its in/inout variables, then
/// writes its out/inout ones and adds into its commutative ones (addition
/// commutes, so any order of a commutative group gives the serial result).
void run_random_task(const RandomTask& t, std::size_t i, std::uint64_t it,
                     std::uint64_t* v) {
  std::uint64_t acc = (i + 1) * 0x9e3779b97f4a7c15ull + it;
  for (const auto& [var, mode] : t.ops) {
    if (mode == 'i' || mode == 'x') acc = acc * 31 + v[var];
  }
  for (const auto& [var, mode] : t.ops) {
    if (mode == 'o') v[var] = acc ^ static_cast<std::uint64_t>(var + 1);
    if (mode == 'x') v[var] = v[var] * 3 + acc;
    if (mode == 'c') v[var] += acc;
  }
}

TEST(ReplayReduction, RandomProgramsKeepReachabilityAndSerialResults) {
  constexpr int kTasks = 48;
  constexpr int kVars = 6;
  constexpr std::uint64_t kReplays = 6;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const std::vector<RandomTask> prog = random_program(seed, kTasks, kVars);
    std::array<std::uint64_t, kVars> v{};
    std::uint64_t iter = 0;
    const auto body = [&](std::size_t i) -> oss::Task::Fn {
      return [&prog, &v, i, it = iter] {
        run_random_task(prog[i], i, it, v.data());
      };
    };

    Runtime rt(oss_test::env_config(4));
    ReplayGraph g;
    {
      GraphCapture cap(rt);
      std::vector<oss::TaskHandle> handles;
      for (std::size_t i = 0; i < prog.size(); ++i) {
        oss::TaskBuilder b = rt.task("t");
        for (const auto& [var, mode] : prog[i].ops) {
          std::uint64_t& x = v[static_cast<std::size_t>(var)];
          if (mode == 'i') b.in(x);
          if (mode == 'o') b.out(x);
          if (mode == 'x') b.inout(x);
          if (mode == 'c') b.commutative(x);
        }
        if (prog[i].after >= 0) {
          b.after(handles[static_cast<std::size_t>(prog[i].after)]);
        }
        handles.push_back(b.spawn(body(i)));
      }
      g = cap.finish();
    }
    rt.taskwait();

    std::vector<std::pair<std::uint32_t, std::uint32_t>> captured, wired;
    for (const ReplayGraph::Edge& e : g.edges()) {
      ASSERT_LT(e.from, e.to); // capture order is topological
      captured.emplace_back(e.from, e.to);
    }
    std::size_t captured_preds = 0;
    for (std::size_t i = 0; i < g.size(); ++i) {
      for (const std::uint32_t p : g.wired_predecessors(i)) {
        wired.emplace_back(p, static_cast<std::uint32_t>(i));
      }
      captured_preds += g.pred_count(i);
    }
    EXPECT_EQ(wired.size(), g.wired_edge_count());
    EXPECT_LE(g.wired_edge_count(), g.edge_count());
    EXPECT_EQ(captured_preds, g.edge_count()); // pred_count stays captured
    EXPECT_EQ(closure(g.size(), wired), closure(g.size(), captured));
    // Minimal: no wired edge is implied by the remaining wired edges.
    const Reach wired_reach = closure(g.size(), wired);
    for (const auto& [from, to] : wired) {
      bool implied = false;
      for (const auto& [f2, mid] : wired) {
        if (f2 == from && mid != to && wired_reach[mid][to]) implied = true;
      }
      EXPECT_FALSE(implied) << from << "->" << to;
    }

    for (iter = 1; iter <= kReplays; ++iter) {
      rt.replay(g, body);
      rt.taskwait();
    }
    std::array<std::uint64_t, kVars> ref{};
    for (std::uint64_t it = 0; it <= kReplays; ++it) {
      for (std::size_t i = 0; i < prog.size(); ++i) {
        run_random_task(prog[i], i, it, ref.data());
      }
    }
    EXPECT_EQ(v, ref);
  }
}

/// Captures the opgraph shape (48 columns x 42 layers, op (l, j) reading
/// columns j and (j + 1 + l % 3) % 48 of layer l-1 and writing column j of
/// layer l, 32 uint64 per column) with every access declared `elems`
/// elements long.  Nothing runs before finish(), so all edges are seen.
ReplayGraph capture_opgraph_shape(std::size_t elems) {
  constexpr int kWidth = 48;
  constexpr int kLayers = 42;
  constexpr std::size_t kCol = 32;
  constexpr std::size_t kRow = kWidth * kCol;
  // Padded so every over-long declaration stays inside its own buffer.
  std::vector<std::uint64_t> input(kRow + elems);
  std::vector<std::uint64_t> layers(kRow * kLayers + elems);
  Runtime rt(oss_test::env_config(1));
  GraphCapture cap(rt);
  for (int l = 0; l < kLayers; ++l) {
    const std::uint64_t* src =
        l == 0 ? input.data()
               : layers.data() + static_cast<std::size_t>(l - 1) * kRow;
    for (int j = 0; j < kWidth; ++j) {
      const int nb = (j + 1 + l % 3) % kWidth;
      rt.task("op")
          .in(src + static_cast<std::size_t>(j) * kCol, elems)
          .in(src + static_cast<std::size_t>(nb) * kCol, elems)
          .out(layers.data() + static_cast<std::size_t>(l) * kRow +
                   static_cast<std::size_t>(j) * kCol,
               elems)
          .spawn([] {});
    }
  }
  ReplayGraph g = cap.finish();
  rt.taskwait();
  return g;
}

TEST(ReplayReduction, OverlongDeclarationsChainAndWireOneEdgePerLink) {
  // 256 elements per access = 8 columns: every op overlaps the next seven
  // ops' outputs, and the row's last ops overlap the next layer's first,
  // so the iteration is one 2016-task chain.  The reduction wires just its
  // links.
  const ReplayGraph g = capture_opgraph_shape(256);
  ASSERT_EQ(g.size(), 2016u);
  EXPECT_EQ(g.edge_count(), 22212u);
  EXPECT_EQ(g.wired_edge_count(), 2015u);
  EXPECT_TRUE(g.wired_predecessors(0).empty());
  for (std::size_t i = 1; i < g.size(); ++i) {
    const auto preds = g.wired_predecessors(i);
    ASSERT_EQ(preds.size(), 1u) << i;
    EXPECT_EQ(preds[0], i - 1);
  }
}

TEST(ReplayReduction, ColumnDeclarationsWireEveryCapturedEdge) {
  // Declared at their real 32 elements, ops of one layer never overlap:
  // each op of layers 1.. has two distinct producers in the layer before,
  // neither reachable from the other, so nothing is redundant.
  const ReplayGraph g = capture_opgraph_shape(32);
  EXPECT_EQ(g.edge_count(), 3936u);
  EXPECT_EQ(g.wired_edge_count(), 3936u);
}

// ---------------------------------------------------------------------------
// Run-first rule: replay() on a worker runs one root before returning
// ---------------------------------------------------------------------------

/// Where and when one replayed task ran.
struct RunRecord {
  std::thread::id thread;
  bool in_replay = false; ///< the replaying thread had not left replay() yet
};

/// A captured `n`-link inout chain on one token.  Each link records where
/// and when it ran and counts itself.
struct RecordedChain {
  explicit RecordedChain(std::size_t n) : runs(n) {}

  std::vector<RunRecord> runs;
  std::atomic<bool> replaying{false};
  std::atomic<std::size_t> done{0};
  std::uint64_t token = 0;
  ReplayGraph graph;

  oss::Task::Fn body(std::size_t i) {
    return [this, i] {
      runs[i] = {std::this_thread::get_id(), replaying.load()};
      token = token * 3 + i;
      done.fetch_add(1);
    };
  }
  void capture(Runtime& rt) {
    GraphCapture cap(rt);
    for (std::size_t i = 0; i < runs.size(); ++i) {
      rt.task("link").inout(token).spawn(body(i));
    }
    graph = cap.finish();
    rt.taskwait();
  }
  /// Replays from the calling thread, flagging the bodies that run before
  /// replay() returns.
  void replay(Runtime& rt) {
    done.store(0);
    replaying.store(true);
    rt.replay(graph, [this](std::size_t i) { return body(i); });
    replaying.store(false);
  }
  /// The token after `iterations` sequential runs of the chain.
  [[nodiscard]] std::uint64_t expected(int iterations) const {
    std::uint64_t v = 0;
    for (int it = 0; it < iterations; ++it) {
      for (std::size_t i = 0; i < runs.size(); ++i) v = v * 3 + i;
    }
    return v;
  }
  [[nodiscard]] std::size_t ran_inside_replay_on(std::thread::id t) const {
    return static_cast<std::size_t>(
        std::count_if(runs.begin(), runs.end(), [t](const RunRecord& r) {
          return r.thread == t && r.in_replay;
        }));
  }
};

RuntimeConfig policy_config(std::size_t threads, oss::SchedulerPolicy p) {
  RuntimeConfig cfg = RuntimeConfig::with_threads(threads);
  cfg.scheduler = p;
  return cfg;
}

TEST(ReplayRunFirst, ChainFromOwningThreadRunsInsideReplay) {
  constexpr std::size_t kLinks = 2000;
  for (const auto policy : {oss::SchedulerPolicy::Locality,
                            oss::SchedulerPolicy::WorkStealing}) {
    SCOPED_TRACE(oss::to_string(policy));
    Runtime rt(policy_config(4, policy));
    RecordedChain c(kLinks);
    c.capture(rt);
    c.replay(rt); // warm
    rt.taskwait();

    const oss::StatsSnapshot before = rt.stats();
    c.replay(rt);
    // Every link already ran, on this thread, before replay() returned:
    // the root was kept and each retirement kept the next link.
    EXPECT_EQ(c.done.load(), kLinks);
    rt.taskwait();
    EXPECT_EQ(c.ran_inside_replay_on(std::this_thread::get_id()), kLinks);
    const oss::StatsSnapshot after = rt.stats();
    EXPECT_EQ(after.wakeups - before.wakeups, 0u);
    EXPECT_EQ(after.steals - before.steals, 0u);
    EXPECT_EQ(after.local_pops - before.local_pops, kLinks);
    EXPECT_EQ(c.token, c.expected(3));
  }
}

TEST(ReplayRunFirst, FifoRunsNothingInsideReplay) {
  Runtime rt(policy_config(4, oss::SchedulerPolicy::Fifo));
  RecordedChain c(500);
  c.capture(rt);
  c.replay(rt);
  rt.taskwait();
  EXPECT_EQ(c.ran_inside_replay_on(std::this_thread::get_id()), 0u);
  EXPECT_EQ(c.token, c.expected(2));
}

TEST(ReplayRunFirst, NonWorkerThreadRunsNothingInsideReplay) {
  Runtime rt(policy_config(4, oss::SchedulerPolicy::Locality));
  RecordedChain c(500);
  c.capture(rt);
  std::thread::id replayer;
  std::thread t([&] {
    replayer = std::this_thread::get_id();
    c.replay(rt);
  });
  t.join();
  rt.taskwait();
  // The plain thread never helps, so no task can have run on it at all.
  for (const RunRecord& r : c.runs) EXPECT_NE(r.thread, replayer);
  EXPECT_EQ(c.token, c.expected(2));
}

TEST(ReplayRunFirst, PriorityRootIsPublishedNotRunInline) {
  Runtime rt(policy_config(4, oss::SchedulerPolicy::Locality));
  constexpr std::size_t kTasks = 16;
  std::vector<RunRecord> runs(kTasks);
  std::atomic<bool> replaying{false};
  std::uint64_t token = 0;
  const auto body = [&](std::size_t i) -> oss::Task::Fn {
    return [&, i] {
      runs[i] = {std::this_thread::get_id(), replaying.load()};
      token = token * 3 + i;
    };
  };
  ReplayGraph g;
  {
    GraphCapture cap(rt);
    rt.task("urgent").priority(1).inout(token).spawn(body(0));
    for (std::size_t i = 1; i < kTasks; ++i) {
      rt.task("link").inout(token).spawn(body(i));
    }
    g = cap.finish();
  }
  rt.taskwait();
  replaying.store(true);
  rt.replay(g, body);
  replaying.store(false);
  rt.taskwait();
  EXPECT_FALSE(runs[0].thread == std::this_thread::get_id() &&
               runs[0].in_replay);
}

TEST(ReplayRunFirst, OneOfSeveralRootsRunsInline) {
  // kRoots independent chains.  Each root waits until every root has
  // started, so the roots run on kRoots distinct threads at once: the
  // kept one inside replay() on this thread, the published ones on the
  // workers their publish woke.
  constexpr std::size_t kRoots = 3;
  constexpr std::size_t kLinks = 8;
  Runtime rt(policy_config(4, oss::SchedulerPolicy::Locality));
  std::vector<RunRecord> roots(kRoots);
  std::array<std::uint64_t, kRoots> chains{};
  std::atomic<std::size_t> started{0};
  std::atomic<bool> replaying{false};
  const auto body = [&](std::size_t i) -> oss::Task::Fn {
    const std::size_t chain = i % kRoots;
    if (i >= kRoots) {
      return [&chains, chain, i] { chains[chain] = chains[chain] * 3 + i; };
    }
    return [&, chain, i] {
      roots[chain] = {std::this_thread::get_id(), replaying.load()};
      started.fetch_add(1);
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (started.load() % kRoots != 0 &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::yield();
      }
      chains[chain] = chains[chain] * 3 + i;
    };
  };
  ReplayGraph g;
  {
    GraphCapture cap(rt);
    for (std::size_t i = 0; i < kRoots * kLinks; ++i) {
      rt.task("op").inout(chains[i % kRoots]).spawn(body(i));
    }
    g = cap.finish();
  }
  rt.taskwait();
  ASSERT_EQ(started.load(), kRoots);

  replaying.store(true);
  rt.replay(g, body);
  replaying.store(false);
  rt.taskwait();

  const std::thread::id self = std::this_thread::get_id();
  std::size_t inline_roots = 0;
  for (std::size_t r = 0; r < kRoots; ++r) {
    if (roots[r].thread == self) {
      EXPECT_TRUE(roots[r].in_replay) << "root " << r;
      ++inline_roots;
    }
    for (std::size_t q = 0; q < r; ++q) {
      EXPECT_NE(roots[r].thread, roots[q].thread) << r << " vs " << q;
    }
  }
  EXPECT_EQ(inline_roots, 1u);
  for (std::size_t c = 0; c < kRoots; ++c) {
    std::uint64_t expected = 0;
    for (int it = 0; it < 2; ++it) {
      for (std::size_t i = c; i < kRoots * kLinks; i += kRoots) {
        expected = expected * 3 + i;
      }
    }
    EXPECT_EQ(chains[c], expected) << "chain " << c;
  }
}

TEST(ReplayRunFirst, ThrowingInlineRootSurfacesAtTaskwait) {
  Runtime rt(policy_config(4, oss::SchedulerPolicy::Locality));
  RecordedChain c(64);
  c.capture(rt);
  const std::thread::id self = std::this_thread::get_id();
  std::thread::id root_thread;
  c.replaying.store(true);
  EXPECT_NO_THROW(rt.replay(c.graph, [&](std::size_t i) -> oss::Task::Fn {
    if (i == 0) {
      return [&] {
        root_thread = std::this_thread::get_id();
        throw std::runtime_error("inline root");
      };
    }
    return c.body(i);
  }));
  c.replaying.store(false);
  EXPECT_THROW(rt.taskwait(), std::runtime_error);
  EXPECT_EQ(root_thread, self);

  c.token = 0;
  c.replay(rt);
  rt.taskwait();
  EXPECT_EQ(c.token, c.expected(1));
}

// ---------------------------------------------------------------------------
// Zero-allocation proof for the warmed replay loop
// ---------------------------------------------------------------------------

TEST(Replay, WarmedReplaySubmissionIsAllocationFree) {
  if (!interposer_active()) {
    GTEST_SKIP() << "allocation interposer disabled under sanitizers";
  }
  RuntimeConfig cfg = replay_config(1, 8, true);
  Runtime rt(cfg);
  std::array<std::uint64_t, 8> buf{};
  ReplayGraph g;
  {
    GraphCapture cap(rt);
    for (std::size_t i = 0; i < buf.size(); ++i) {
      if (i == 0) {
        rt.task("h").out(buf[0]).spawn([&buf] { buf[0] += 1; });
      } else {
        rt.task("l").in(buf[i - 1]).out(buf[i]).spawn(
            [&buf, i] { buf[i] = buf[i - 1] + 1; });
      }
    }
    g = cap.finish();
  }
  rt.taskwait();
  const auto binder = [&buf](std::size_t i) -> oss::Task::Fn {
    if (i == 0) return [&buf] { buf[0] += 1; };
    return [&buf, i] { buf[i] = buf[i - 1] + 1; };
  };
  // Warm everything: the task pool, the replay scratch vectors, the
  // scheduler queues, the trace-less spawn path.
  for (int r = 0; r < 4; ++r) {
    rt.replay(g, binder);
    rt.taskwait();
  }
  // On the owning thread replay() runs the chain it submits (unless the
  // scheduler is fifo), so the counted window is the replay array walk
  // (pool acquires, pre-wiring, root publish) plus the inline execution
  // and retirement of the links.
  const std::uint64_t allocs = count_allocs([&] { rt.replay(g, binder); });
  rt.taskwait();
  EXPECT_EQ(allocs, 0u);
}

} // namespace
