// Stress and lifecycle tests: deep nesting, wide nesting, per-context
// dependency scoping, runtime churn, and randomized mixed-mode reductions.
#include "ompss/ompss.hpp"

#include <gtest/gtest.h>

#include "env_config.hpp"

#include <atomic>
#include <random>
#include <vector>

namespace {

TEST(Stress, DeepNestedSpawnChain) {
  oss::Runtime rt(oss_test::env_config(2));
  std::atomic<int> depth_reached{0};
  constexpr int kDepth = 50;

  std::function<void(int)> descend = [&](int d) {
    depth_reached = std::max(depth_reached.load(), d);
    if (d >= kDepth) return;
    auto* r = oss::Runtime::current();
    r->spawn({}, [&descend, d] { descend(d + 1); });
    r->taskwait();
  };
  rt.spawn({}, [&] { descend(1); });
  rt.taskwait();
  EXPECT_EQ(depth_reached.load(), kDepth);
}

TEST(Stress, WideNestedFanout) {
  oss::Runtime rt(oss_test::env_config(4));
  std::atomic<int> leaves{0};
  constexpr int kOuter = 16;
  constexpr int kInner = 16;
  for (int i = 0; i < kOuter; ++i) {
    rt.spawn({}, [&] {
      auto* r = oss::Runtime::current();
      for (int j = 0; j < kInner; ++j) {
        r->spawn({}, [&] { leaves++; });
      }
      r->taskwait();
    });
  }
  rt.taskwait();
  EXPECT_EQ(leaves.load(), kOuter * kInner);
}

TEST(Stress, SiblingScopedDependencyDomains) {
  // OmpSs scopes dependencies to siblings of one context: children of
  // *different* parents are NOT ordered even when they declare the same
  // region.  (That is why hidden cross-context state needs criticals.)
  oss::Runtime rt(oss_test::env_config(4));
  std::atomic<int> concurrent_pairs{0};
  std::atomic<int> in_flight{0};
  static int shared_token = 0; // same address declared in both subtrees

  for (int p = 0; p < 2; ++p) {
    rt.spawn({}, [&] {
      auto* r = oss::Runtime::current();
      for (int i = 0; i < 8; ++i) {
        r->spawn({oss::inout(shared_token)}, [&] {
          if (in_flight.fetch_add(1) > 0) concurrent_pairs++;
          for (int j = 0; j < 30000; ++j) { volatile int sink = j; (void)sink; }
          in_flight.fetch_sub(1);
        });
      }
      r->taskwait();
    });
  }
  rt.taskwait();
  // Within each parent the 8 tasks serialize (inout chain); across parents
  // nothing orders them.  We can't assert overlap deterministically on one
  // core, but the run must at least complete without deadlock, and the
  // serialization within each chain is covered by other tests.
  SUCCEED();
}

TEST(Stress, RuntimeChurn) {
  // Create and destroy many runtimes back to back (thread lifecycle).
  for (int round = 0; round < 25; ++round) {
    oss::Runtime rt(oss_test::env_config(3));
    std::atomic<int> hits{0};
    for (int i = 0; i < 20; ++i) rt.spawn({}, [&] { hits++; });
    rt.taskwait();
    ASSERT_EQ(hits.load(), 20) << "round " << round;
  }
}

TEST(Stress, ExceptionStormWithDependencies) {
  oss::Runtime rt(oss_test::env_config(4));
  int token = 0;
  std::atomic<int> executed{0};
  for (int i = 0; i < 100; ++i) {
    rt.spawn({oss::inout(token)}, [&executed, i]() {
      executed++;
      if (i % 7 == 3) throw std::runtime_error("storm");
    });
  }
  EXPECT_THROW(rt.taskwait(), std::runtime_error);
  // Failures must not break the chain: every task still ran.
  EXPECT_EQ(executed.load(), 100);
}

/// Tiny inout/in chains over a few cells: each round updates every cell in
/// place, then reads two neighbouring cells into a per-round output slot.
/// Bodies are a handful of instructions, so on several threads producers
/// retire while later tasks are still registering against them.  Returns
/// the runtime's edge count; `cells`/`outs` receive the results.
std::uint64_t run_retiring_chains(std::size_t threads,
                                  std::vector<std::uint64_t>& cells,
                                  std::vector<std::uint64_t>& outs) {
  constexpr std::size_t kCells = 8;
  constexpr std::size_t kRounds = 200;
  cells.assign(kCells, 1);
  outs.assign(kCells * kRounds, 0);
  oss::Runtime rt(oss_test::env_config(threads));
  for (std::size_t r = 0; r < kRounds; ++r) {
    for (std::size_t c = 0; c < kCells; ++c) {
      std::uint64_t& v = cells[c];
      rt.task("update").inout(v).spawn(
          [&v, r, c] { v = v * 6364136223846793005ull + r * kCells + c; });
    }
    for (std::size_t c = 0; c < kCells; ++c) {
      const std::uint64_t& a = cells[c];
      const std::uint64_t& b = cells[(c + 1) % kCells];
      std::uint64_t& o = outs[r * kCells + c];
      rt.task("read").in(a).in(b).out(o).spawn(
          [&a, &b, &o] { o = a ^ (b >> 7); });
    }
  }
  rt.taskwait();
  return rt.stats().edges_total();
}

TEST(Stress, ProducersRetiringDuringRegistrationKeepSerialOrder) {
  // Serial reference: the same program run in spawn order.
  std::vector<std::uint64_t> ref_cells, ref_outs;
  const std::uint64_t serial_edges =
      run_retiring_chains(1, ref_cells, ref_outs);
  // On one thread nothing retires before the taskwait, so every hazard is
  // an edge; retired producers may only ever remove edges from that set.
  ASSERT_GT(serial_edges, 0u);
  for (int rep = 0; rep < 20; ++rep) {
    std::vector<std::uint64_t> cells, outs;
    const std::uint64_t edges = run_retiring_chains(4, cells, outs);
    ASSERT_EQ(cells, ref_cells) << "rep " << rep;
    ASSERT_EQ(outs, ref_outs) << "rep " << rep;
    EXPECT_LE(edges, serial_edges) << "rep " << rep;
  }
}

using ModeFuzzParam = std::tuple<std::uint32_t, std::size_t>;

class ModeFuzzTest : public ::testing::TestWithParam<ModeFuzzParam> {};

TEST_P(ModeFuzzTest, MixedModeReductionsSumExactly) {
  const auto [seed, threads] = GetParam();
  std::mt19937 rng(seed);
  constexpr int kCounters = 4;
  constexpr int kTasks = 300;

  // Counters updated via randomly chosen mechanisms; each mechanism is
  // correct for its mode, so the total must always be exact.
  struct Counter {
    long plain = 0;            // inout / commutative updates
    std::atomic<long> atomic{0}; // concurrent updates
  };
  std::vector<Counter> counters(kCounters);
  std::vector<long> expected(kCounters, 0);

  oss::Runtime rt(oss_test::env_config(threads));
  std::uniform_int_distribution<int> which(0, kCounters - 1);
  std::uniform_int_distribution<int> mech(0, 2);
  std::uniform_int_distribution<int> amount(1, 9);

  for (int t = 0; t < kTasks; ++t) {
    const int c = which(rng);
    const long add = amount(rng);
    expected[static_cast<std::size_t>(c)] += add;
    Counter& ctr = counters[static_cast<std::size_t>(c)];
    switch (mech(rng)) {
      case 0:
        rt.spawn({oss::inout(ctr.plain)}, [&ctr, add] { ctr.plain += add; });
        break;
      case 1:
        rt.spawn({oss::commutative(ctr.plain)}, [&ctr, add] { ctr.plain += add; });
        break;
      default:
        rt.spawn({oss::concurrent(ctr.atomic)},
                 [&ctr, add] { ctr.atomic.fetch_add(add); });
        break;
    }
  }
  rt.taskwait();

  for (int c = 0; c < kCounters; ++c) {
    const auto& ctr = counters[static_cast<std::size_t>(c)];
    EXPECT_EQ(ctr.plain + ctr.atomic.load(), expected[static_cast<std::size_t>(c)])
        << "counter " << c << " seed " << seed << " threads " << threads;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ModeFuzzTest,
    ::testing::Combine(::testing::Values(1u, 2u, 3u),
                       ::testing::Values(std::size_t{1}, std::size_t{2},
                                         std::size_t{4})),
    [](const auto& info) {
      return "seed" + std::to_string(std::get<0>(info.param)) + "_t" +
             std::to_string(std::get<1>(info.param));
    });

} // namespace
