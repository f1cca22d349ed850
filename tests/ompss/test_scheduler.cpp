// Scheduler policy tests: correctness under every policy, locality placement,
// stealing, and direct unit tests of the Scheduler class.
#include "ompss/ompss.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <numeric>
#include <thread>
#include <vector>

namespace {

class SchedulerPolicyTest
    : public ::testing::TestWithParam<oss::SchedulerPolicy> {};

TEST_P(SchedulerPolicyTest, DependentChainsCorrectUnderEveryPolicy) {
  oss::RuntimeConfig cfg = oss::RuntimeConfig::with_threads(4);
  cfg.scheduler = GetParam();
  oss::Runtime rt(cfg);

  constexpr int kChains = 16;
  constexpr int kLinks = 30;
  std::vector<long> acc(kChains, 0);
  for (int link = 0; link < kLinks; ++link) {
    for (int c = 0; c < kChains; ++c) {
      long* slot = &acc[c];
      rt.spawn({oss::inout(*slot)}, [slot, link] { *slot = *slot * 3 + link; });
    }
  }
  rt.taskwait();

  long expected = 0;
  for (int link = 0; link < kLinks; ++link) expected = expected * 3 + link;
  for (int c = 0; c < kChains; ++c) EXPECT_EQ(acc[c], expected) << "chain " << c;
}

TEST_P(SchedulerPolicyTest, IndependentTasksAllRun) {
  oss::RuntimeConfig cfg = oss::RuntimeConfig::with_threads(3);
  cfg.scheduler = GetParam();
  oss::Runtime rt(cfg);
  std::atomic<int> hits{0};
  for (int i = 0; i < 500; ++i) rt.spawn({}, [&] { hits++; });
  rt.taskwait();
  EXPECT_EQ(hits.load(), 500);
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, SchedulerPolicyTest,
                         ::testing::Values(oss::SchedulerPolicy::Fifo,
                                           oss::SchedulerPolicy::Locality,
                                           oss::SchedulerPolicy::WorkStealing),
                         [](const auto& info) {
                           return std::string(oss::to_string(info.param));
                         });

TEST(SchedulerStats, LocalityPolicyUsesLocalQueuesForChains) {
  oss::RuntimeConfig cfg = oss::RuntimeConfig::with_threads(2);
  cfg.scheduler = oss::SchedulerPolicy::Locality;
  oss::Runtime rt(cfg);
  int token = 0;
  // The first link waits for a gate opened only after the last link is
  // spawned, so every edge exists before any link retires.
  std::atomic<bool> gate{false};
  for (int i = 0; i < 100; ++i) {
    rt.spawn({oss::inout(token)}, [&gate, i] {
      if (i == 0) {
        while (!gate.load(std::memory_order_acquire)) std::this_thread::yield();
      }
      for (int j = 0; j < 100; ++j) { volatile int sink = j; (void)sink; }
    });
  }
  gate.store(true, std::memory_order_release);
  rt.taskwait();
  const auto stats = rt.stats();
  // Each unblocked chain link lands in the finisher's local queue.
  EXPECT_GT(stats.local_pops, 0u);
}

TEST(SchedulerStats, FifoPolicyNeverUsesLocalQueues) {
  oss::RuntimeConfig cfg = oss::RuntimeConfig::with_threads(2);
  cfg.scheduler = oss::SchedulerPolicy::Fifo;
  oss::Runtime rt(cfg);
  int token = 0;
  for (int i = 0; i < 100; ++i) {
    rt.spawn({oss::inout(token)}, [] {});
  }
  rt.taskwait();
  const auto stats = rt.stats();
  EXPECT_EQ(stats.local_pops, 0u);
  EXPECT_EQ(stats.steals, 0u);
  EXPECT_GT(stats.global_pops, 0u);
}

// --- direct Scheduler unit tests -------------------------------------------
//
// These drive the policy objects single-threadedly through the factory; the
// owner-thread discipline of the lock-free deques is irrelevant without
// concurrency, so calling enqueue/pick for several worker ids from this one
// thread is fine.

oss::TaskPtr dummy_task(std::uint64_t id) {
  static auto ctx = std::make_shared<oss::TaskContext>();
  return oss::make_task(id, [] {}, oss::AccessList{}, ctx, "");
}

TEST(SchedulerUnit, FifoIsFirstInFirstOut) {
  auto s = oss::Scheduler::create(oss::SchedulerPolicy::Fifo, 2);
  oss::Stats stats(2);
  s->enqueue_spawned(dummy_task(1), 0);
  s->enqueue_spawned(dummy_task(2), 0);
  s->enqueue_unblocked(dummy_task(3), 1);
  EXPECT_EQ(s->pick(0, stats)->id(), 1u);
  EXPECT_EQ(s->pick(1, stats)->id(), 2u);
  EXPECT_EQ(s->pick(0, stats)->id(), 3u);
  EXPECT_EQ(s->pick(0, stats), nullptr);
}

TEST(SchedulerUnit, LocalityUnblockedGoesToFinisherHotEnd) {
  auto s = oss::Scheduler::create(oss::SchedulerPolicy::Locality, 2);
  oss::Stats stats(2);
  s->enqueue_unblocked(dummy_task(10), 1);
  s->enqueue_unblocked(dummy_task(11), 1);
  // Worker 1 pops LIFO: most recently unblocked first.
  EXPECT_EQ(s->pick(1, stats)->id(), 11u);
  EXPECT_EQ(s->pick(1, stats)->id(), 10u);
}

TEST(SchedulerUnit, IdleWorkerStealsFromVictimColdEnd) {
  auto s = oss::Scheduler::create(oss::SchedulerPolicy::Locality, 2);
  oss::Stats stats(2);
  s->enqueue_unblocked(dummy_task(20), 1);
  s->enqueue_unblocked(dummy_task(21), 1);
  // Worker 0 has nothing local and the global queue is empty: steals the
  // oldest entry from worker 1.
  const auto t = s->pick(0, stats);
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->id(), 20u);
  EXPECT_EQ(stats.snapshot().steals, 1u);
}

TEST(SchedulerUnit, NonWorkerThreadsUseGlobalAndSteal) {
  auto s = oss::Scheduler::create(oss::SchedulerPolicy::WorkStealing, 2);
  oss::Stats stats(2);
  s->enqueue_spawned(dummy_task(30), -1); // foreign spawner -> global
  EXPECT_EQ(s->pick(-1, stats)->id(), 30u);
  s->enqueue_unblocked(dummy_task(31), 0);
  EXPECT_EQ(s->pick(-1, stats)->id(), 31u); // stolen
}

TEST(SchedulerUnit, QueuedCountsAllQueues) {
  auto s = oss::Scheduler::create(oss::SchedulerPolicy::WorkStealing, 2);
  oss::Stats stats(2);
  EXPECT_EQ(s->queued(), 0u);
  s->enqueue_spawned(dummy_task(1), -1);
  s->enqueue_unblocked(dummy_task(2), 0);
  s->enqueue_unblocked(dummy_task(3), 1);
  EXPECT_EQ(s->queued(), 3u);
  (void)s->pick(0, stats);
  EXPECT_EQ(s->queued(), 2u);
}

TEST(SchedulerUnit, FailedStealSweepIsCounted) {
  auto s = oss::Scheduler::create(oss::SchedulerPolicy::WorkStealing, 2,
                                  /*steal_tries=*/3);
  oss::Stats stats(2);
  EXPECT_EQ(s->pick(0, stats), nullptr); // nothing anywhere
  EXPECT_EQ(stats.snapshot().steals_failed, 1u);
  EXPECT_EQ(stats.snapshot().steals, 0u);
}

TEST(SchedulerUnit, SpawnedTaskGoesToSpawnerDequeUnderWorkStealing) {
  auto s = oss::Scheduler::create(oss::SchedulerPolicy::WorkStealing, 2);
  oss::Stats stats(2);
  s->enqueue_spawned(dummy_task(40), 0);
  // Worker 0 takes it from its own deque (local pop, not a global pop).
  EXPECT_EQ(s->pick(0, stats)->id(), 40u);
  EXPECT_EQ(stats.snapshot().local_pops, 1u);
  EXPECT_EQ(stats.snapshot().global_pops, 0u);
}

TEST(SchedulerUnit, HandOffRuleKeepsOnlyPlainWorkerSuccessors) {
  for (const auto policy : {oss::SchedulerPolicy::Locality,
                            oss::SchedulerPolicy::WorkStealing}) {
    SCOPED_TRACE(oss::to_string(policy));
    auto s = oss::Scheduler::create(policy, 2);
    oss::Stats stats(2);
    const oss::TaskPtr plain = dummy_task(50);
    EXPECT_TRUE(s->keep_unblocked(plain, 1));
    EXPECT_FALSE(s->keep_unblocked(plain, -1)); // non-worker finisher
    oss::TaskPtr urgent = dummy_task(51);
    urgent->set_priority(1);
    EXPECT_FALSE(s->keep_unblocked(urgent, 1));
    // Queued priority work blocks the hand-off until it is picked.
    s->enqueue_spawned(std::move(urgent), 0);
    EXPECT_FALSE(s->keep_unblocked(plain, 1));
    EXPECT_EQ(s->pick(1, stats)->id(), 51u);
    EXPECT_TRUE(s->keep_unblocked(plain, 1));
    // Starting a kept task counts as the local pop it replaces.
    const std::uint64_t before = stats.snapshot().local_pops;
    s->account_kept(plain, 1, stats);
    EXPECT_EQ(stats.snapshot().local_pops, before + 1);
  }
  auto fifo = oss::Scheduler::create(oss::SchedulerPolicy::Fifo, 2);
  EXPECT_FALSE(fifo->keep_unblocked(dummy_task(52), 1));
}

// --- successor hand-off through the runtime --------------------------------

void spin_for(std::chrono::microseconds d) {
  const auto end = std::chrono::steady_clock::now() + d;
  while (std::chrono::steady_clock::now() < end) {
  }
}

/// An `n`-link inout chain whose first link waits for a gate opened only
/// after the last link is spawned, so every edge exists before any link
/// retires.  Records the thread each link ran on, and the runtime's stats
/// as the first link passes the gate (the head itself may be stolen).
struct GatedChain {
  std::vector<std::thread::id> ran_on;
  oss::StatsSnapshot at_head;
};
GatedChain run_gated_chain(oss::Runtime& rt, int n) {
  GatedChain c;
  c.ran_on.resize(static_cast<std::size_t>(n));
  std::atomic<bool> gate{false};
  int token = 0;
  for (int i = 0; i < n; ++i) {
    rt.task("link").inout(token).spawn([&, i] {
      if (i == 0) {
        while (!gate.load(std::memory_order_acquire)) std::this_thread::yield();
        c.at_head = rt.stats();
      }
      c.ran_on[static_cast<std::size_t>(i)] = std::this_thread::get_id();
    });
  }
  gate.store(true, std::memory_order_release);
  rt.taskwait();
  return c;
}

TEST(SchedulerHandOff, GatedChainRunsOnOneWorkerWithoutSteals) {
  constexpr int kLinks = 2000;
  for (const auto policy : {oss::SchedulerPolicy::Locality,
                            oss::SchedulerPolicy::WorkStealing}) {
    SCOPED_TRACE(oss::to_string(policy));
    oss::RuntimeConfig cfg = oss::RuntimeConfig::with_threads(4);
    cfg.scheduler = policy;
    oss::Runtime rt(cfg);
    const GatedChain c = run_gated_chain(rt, kLinks);
    const oss::StatsSnapshot after = rt.stats();
    // Each finisher keeps the link it released: nothing is ever queued
    // behind the first link, so no thief finds anything to take.
    for (int i = 1; i < kLinks; ++i) {
      ASSERT_EQ(c.ran_on[static_cast<std::size_t>(i)], c.ran_on[0])
          << "link " << i;
    }
    EXPECT_EQ(after.steals - c.at_head.steals, 0u);
    EXPECT_EQ(after.local_pops - c.at_head.local_pops,
              static_cast<std::uint64_t>(kLinks - 1));
  }
}

TEST(SchedulerHandOff, FifoNeverKeeps) {
  oss::RuntimeConfig cfg = oss::RuntimeConfig::with_threads(4);
  cfg.scheduler = oss::SchedulerPolicy::Fifo;
  oss::Runtime rt(cfg);
  (void)run_gated_chain(rt, 500);
  const oss::StatsSnapshot st = rt.stats();
  EXPECT_EQ(st.local_pops, 0u);
  EXPECT_EQ(st.global_pops, 500u);
}

TEST(SchedulerHandOff, PriorityTaskQueuedMidChainRunsBeforeNextLink) {
  // One thread, so the order is deterministic: link 5 queues a priority
  // task, and the finisher must not keep link 6 past it.
  oss::RuntimeConfig cfg = oss::RuntimeConfig::with_threads(1);
  cfg.scheduler = oss::SchedulerPolicy::Locality;
  oss::Runtime rt(cfg);
  std::vector<int> order;
  int token = 0;
  for (int i = 0; i < 10; ++i) {
    rt.task("link").inout(token).spawn([&rt, &order, i] {
      order.push_back(i);
      if (i == 5) {
        rt.task("urgent").priority(1).spawn([&order] { order.push_back(-1); });
      }
    });
  }
  rt.barrier();
  const std::vector<int> expected = {0, 1, 2, 3, 4, 5, -1, 6, 7, 8, 9};
  EXPECT_EQ(order, expected);
}

TEST(SchedulerHandOff, NestedTaskwaitReturnsWhileUnrelatedChainKeepsGoing) {
  // Worker 1 runs task P, whose taskwait picks up the head of an unrelated
  // long chain and keeps being handed its next link.  The owning thread
  // then runs P's only child; P's taskwait must return between two links,
  // long before the chain ends, handing its held link back.
  constexpr int kLinks = 2000;
  oss::RuntimeConfig cfg = oss::RuntimeConfig::with_threads(2);
  cfg.scheduler = oss::SchedulerPolicy::Locality;
  oss::Runtime rt(cfg);
  std::atomic<bool> p_started{false}, chain_spawned{false};
  std::atomic<int> links_done{0};
  std::atomic<int> links_at_return{-1};
  std::thread::id p_thread, chain_head_thread;

  rt.task("P").spawn([&] {
    p_thread = std::this_thread::get_id();
    p_started.store(true, std::memory_order_release);
    while (!chain_spawned.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    // Queued behind the chain's head (one FIFO shard at two workers), so
    // this taskwait picks the head first.
    rt.task("child").spawn([] {});
    rt.taskwait();
    links_at_return.store(links_done.load());
  });
  // Only worker 1 executes until this thread waits: it runs P.
  while (!p_started.load(std::memory_order_acquire)) std::this_thread::yield();
  std::uint64_t chain = 0;
  for (int i = 0; i < kLinks; ++i) {
    rt.task("link").inout(chain).spawn([&, i] {
      if (i == 0) chain_head_thread = std::this_thread::get_id();
      spin_for(std::chrono::microseconds(20));
      chain = chain * 3 + i;
      links_done.fetch_add(1);
    });
  }
  chain_spawned.store(true, std::memory_order_release);
  // Join only once P's taskwait is inside the chain, then run the child.
  while (links_done.load() < 1) std::this_thread::yield();
  rt.taskwait();

  EXPECT_EQ(chain_head_thread, p_thread);
  EXPECT_GE(links_at_return.load(), 1);
  EXPECT_LT(links_at_return.load(), kLinks);
  EXPECT_EQ(links_done.load(), kLinks);
  std::uint64_t expected = 0;
  for (int i = 0; i < kLinks; ++i) expected = expected * 3 + i;
  EXPECT_EQ(chain, expected);
}

} // namespace
