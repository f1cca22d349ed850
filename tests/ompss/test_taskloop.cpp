// spawn_for (taskloop analogue): coverage, chunking, dependency composition.
#include "ompss/ompss.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

namespace {

TEST(Taskloop, CoversRangeExactlyOnce) {
  oss::Runtime rt(4);
  std::vector<std::atomic<int>> touched(1000);
  oss::spawn_for(rt, 0, 1000, 64, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) touched[i]++;
  });
  rt.taskwait();
  for (const auto& t : touched) EXPECT_EQ(t.load(), 1);
}

TEST(Taskloop, ChunkZeroTreatedAsOne) {
  oss::Runtime rt(2);
  std::atomic<int> calls{0};
  oss::spawn_for(rt, 0, 5, 0, [&](std::size_t, std::size_t) { calls++; });
  rt.taskwait();
  EXPECT_EQ(calls.load(), 5); // one task per element
}

TEST(Taskloop, EmptyRangeSpawnsNothing) {
  oss::Runtime rt(2);
  std::atomic<int> calls{0};
  oss::spawn_for(rt, 7, 7, 4, [&](std::size_t, std::size_t) { calls++; });
  rt.taskwait();
  EXPECT_EQ(calls.load(), 0);
  EXPECT_EQ(rt.stats().tasks_spawned, 0u);
}

TEST(Taskloop, AccessBuilderChainsConsecutiveLoops) {
  // Loop 1 writes data[i] = i; loop 2 doubles it.  The per-chunk access
  // declarations must chain chunk 2.k after chunk 1.k.  Edges are recorded
  // only against unfinished producers, so loop 1's chunks are held at a
  // gate until loop 2 is spawned: otherwise they may all retire first and
  // the chaining would go unobserved.
  oss::Runtime rt(4);
  std::vector<long> data(512, -1);
  std::atomic<bool> gate_open{false};
  oss::spawn_for(
      rt, 0, data.size(), 64,
      [&](std::size_t lo, std::size_t hi) {
        while (!gate_open.load(std::memory_order_acquire)) {
          std::this_thread::yield();
        }
        for (std::size_t i = lo; i < hi; ++i) data[i] = static_cast<long>(i);
      },
      [&](std::size_t lo, std::size_t hi) {
        return oss::AccessList{oss::out(&data[lo], hi - lo)};
      },
      "init");
  oss::spawn_for(
      rt, 0, data.size(), 64,
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) data[i] *= 2;
      },
      [&](std::size_t lo, std::size_t hi) {
        return oss::AccessList{oss::inout(&data[lo], hi - lo)};
      },
      "double");
  gate_open.store(true, std::memory_order_release);
  rt.taskwait();
  for (std::size_t i = 0; i < data.size(); ++i) {
    EXPECT_EQ(data[i], static_cast<long>(2 * i));
  }
  // And the chaining must have produced dependency edges: one WAW edge
  // per chunk pair, nothing else (loop 1's chunks are disjoint).
  EXPECT_GT(rt.stats().edges_total(), 0u);
  EXPECT_EQ(rt.stats().edges_total(), data.size() / 64);
}

TEST(Taskloop, LabelsAppearInGraph) {
  oss::RuntimeConfig cfg = oss::RuntimeConfig::with_threads(2);
  cfg.record_graph = true;
  oss::Runtime rt(cfg);
  oss::spawn_for(rt, 0, 8, 4, [](std::size_t, std::size_t) {}, nullptr,
                 "my_loop");
  rt.taskwait();
  EXPECT_NE(rt.export_graph_dot().find("my_loop"), std::string::npos);
}

} // namespace
