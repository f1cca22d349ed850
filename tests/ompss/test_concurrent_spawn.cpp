// test_concurrent_spawn.cpp — multi-threaded spawn/finish stress for the
// sharded dependency layer (docs/dependencies.md).
//
// Historically every spawn and every task completion serialized on one
// runtime-wide graph mutex, so N spawner threads could not race each other
// or the finish path.  These tests drive exactly those races: several
// foreign threads spawning into the same (root) dependency domain with
// disjoint regions (different shards, no contention), one shared region
// (cross-thread chains through one shard), commutative groups over ranges
// spanning several shards (multi-lock registration racing retirement), and
// a mixed fuzz where bodies really read/write the declared bytes — under
// TSan, any hazard the domain fails to order becomes a reported race.
//
// The suite honors the env matrix (tests/run_matrix.sh) through
// env_config.hpp; OSS_DEP_SHARDS steers the domain sharding (the harness
// sweeps 1 vs 8 — single-lock fallback vs sharded).
#include "ompss/ompss.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <functional>
#include <random>
#include <thread>
#include <tuple>
#include <vector>

#include "env_config.hpp"

namespace {

constexpr std::size_t kStripe = std::size_t{1} << oss::DepDomain::kStripeShift;

/// Keeps computed values observable so -O2 cannot elide the reads the fuzz
/// bodies perform (TSan only sees accesses that actually happen).
std::atomic<unsigned> g_sink{0};

/// Runs `body(thread_index)` on `n` plain std::threads and joins them —
/// foreign spawners from the runtime's point of view, all landing in the
/// root context (shared sibling domain).
void on_threads(int n, const std::function<void(int)>& body) {
  std::vector<std::thread> ts;
  ts.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) ts.emplace_back(body, i);
  for (auto& t : ts) t.join();
}

TEST(ConcurrentSpawn, DisjointRegionSpawnersScaleWithoutInterference) {
  constexpr int kSpawners = 4;
  constexpr int kTasks = 200;
  oss::Runtime rt(oss_test::env_config(3));
  std::vector<long> slots(kSpawners, 0);

  on_threads(kSpawners, [&](int s) {
    long* slot = &slots[static_cast<std::size_t>(s)];
    for (int i = 0; i < kTasks; ++i) {
      rt.task("link").inout(*slot).spawn([slot] { *slot += 1; });
    }
    // taskwait_on from a foreign thread: collects this slot's chain only.
    rt.taskwait_on(*slot);
    EXPECT_EQ(*slot, kTasks) << "spawner " << s;
  });
  rt.barrier();

  for (int s = 0; s < kSpawners; ++s) EXPECT_EQ(slots[s], kTasks);
  const auto stats = rt.stats();
  EXPECT_EQ(stats.tasks_spawned, kSpawners * kTasks);
  EXPECT_EQ(stats.tasks_executed, kSpawners * kTasks);
  // Chains are ordered by RAW/WAW edges — except where a producer already
  // retired before its successor registered (no edge needed then), so the
  // exact count is timing-dependent.
  EXPECT_GT(stats.edges_total(), 0u);
  EXPECT_EQ(stats.dep_single_shard + stats.dep_multi_shard,
            static_cast<std::uint64_t>(kSpawners * kTasks));
}

TEST(ConcurrentSpawn, OverlappingRegionSerializesAcrossSpawners) {
  constexpr int kSpawners = 4;
  constexpr int kTasks = 100;
  oss::Runtime rt(oss_test::env_config(3));
  long counter = 0;
  std::atomic<int> in_flight{0};
  std::atomic<bool> overlapped{false};

  on_threads(kSpawners, [&](int) {
    for (int i = 0; i < kTasks; ++i) {
      rt.task("bump").inout(counter).spawn([&] {
        if (in_flight.fetch_add(1, std::memory_order_acq_rel) != 0) {
          overlapped.store(true, std::memory_order_relaxed);
        }
        counter += 1; // plain access: the chain is the only protection
        in_flight.fetch_sub(1, std::memory_order_acq_rel);
      });
    }
  });
  rt.barrier();

  EXPECT_EQ(counter, kSpawners * kTasks);
  EXPECT_FALSE(overlapped.load())
      << "inout tasks on one region must never run concurrently";
}

TEST(ConcurrentSpawn, CommutativeGroupsSpanningShardsStayExclusive) {
  constexpr int kSpawners = 3;
  constexpr int kTasks = 40;
  oss::Runtime rt(oss_test::env_config(3));
  // A region spanning several stripes: with OSS_DEP_SHARDS > 1 every
  // commutative member takes the multi-lock registration path and carries
  // one exclusion lock per touched shard sub-range.
  std::vector<char> big(3 * kStripe);
  long sum = 0;
  std::atomic<int> in_flight{0};
  std::atomic<bool> overlapped{false};

  on_threads(kSpawners, [&](int s) {
    for (int i = 0; i < kTasks; ++i) {
      if (i % 8 == 7) {
        // Periodic regular writer: closes the open group, reopening a new
        // epoch — exercises group open/close racing joining members.
        rt.task("close")
            .access(oss::region(big.data(), big.size(), oss::Mode::InOut))
            .spawn([&sum] { sum += 1; });
      } else {
        rt.task("comm")
            .access(oss::region(big.data(), big.size(), oss::Mode::Commutative))
            .spawn([&] {
              if (in_flight.fetch_add(1, std::memory_order_acq_rel) != 0) {
                overlapped.store(true, std::memory_order_relaxed);
              }
              sum += 1; // protected by the commutative exclusion locks
              in_flight.fetch_sub(1, std::memory_order_acq_rel);
            });
      }
    }
    (void)s;
  });
  rt.barrier();

  EXPECT_EQ(sum, kSpawners * kTasks);
  EXPECT_FALSE(overlapped.load())
      << "commutative members must hold the region exclusion lock(s)";
}

TEST(ConcurrentSpawn, MixedRegionFuzzBodiesTouchDeclaredBytes) {
  // Random overlapping windows with random modes; every body actually
  // reads or writes its declared bytes, so a single missed hazard is a
  // data race TSan reports (and a value-corruption chance otherwise).
  constexpr int kSpawners = 4;
  constexpr int kTasks = 150;
  constexpr std::size_t kWindow = 64;
  oss::Runtime rt(oss_test::env_config(3));
  std::vector<unsigned char> buf(4096, 0);

  on_threads(kSpawners, [&](int s) {
    std::mt19937 rng(0xC0FFEEu + static_cast<unsigned>(s));
    std::uniform_int_distribution<std::size_t> off(0, buf.size() - kWindow);
    std::uniform_int_distribution<int> mode(0, 3);
    std::uniform_int_distribution<std::size_t> len(1, kWindow);
    for (int i = 0; i < kTasks; ++i) {
      unsigned char* p = buf.data() + off(rng);
      const std::size_t n = len(rng);
      switch (mode(rng)) {
        case 0:
          rt.task("r").in(p, n).spawn([p, n] {
            unsigned sum = 0;
            for (std::size_t b = 0; b < n; ++b) sum += p[b];
            g_sink.fetch_add(sum, std::memory_order_relaxed);
          });
          break;
        case 1:
          rt.task("w").out(p, n).spawn([p, n] {
            for (std::size_t b = 0; b < n; ++b) p[b] = static_cast<unsigned char>(b);
          });
          break;
        case 2:
          rt.task("rw").inout(p, n).spawn([p, n] {
            for (std::size_t b = 0; b < n; ++b) p[b] += 1;
          });
          break;
        default:
          // Undeferred in the mix: the spawning thread helps out and runs
          // the body inline once the dependencies resolve.
          rt.task("u").inout(p, n).undeferred().spawn([p, n] {
            for (std::size_t b = 0; b < n; ++b) p[b] ^= 0x5a;
          });
          break;
      }
    }
  });
  rt.barrier();

  const auto stats = rt.stats();
  EXPECT_EQ(stats.tasks_spawned, kSpawners * kTasks);
  EXPECT_EQ(stats.tasks_executed, kSpawners * kTasks);
}

TEST(ConcurrentSpawn, ExplicitAfterChainsUnderConcurrentSpawn) {
  // Handle edges (.after) take the per-task successor lock instead of any
  // shard lock; race them against region chains from sibling threads.
  constexpr int kSpawners = 4;
  constexpr int kTasks = 120;
  oss::Runtime rt(oss_test::env_config(3));
  std::vector<long> seq(kSpawners, 0);
  std::vector<long> expect(kSpawners, 0);

  on_threads(kSpawners, [&](int s) {
    long* slot = &seq[static_cast<std::size_t>(s)];
    oss::TaskHandle prev;
    for (int i = 0; i < kTasks; ++i) {
      prev = rt.task("after")
                 .after(prev) // empty handle on the first lap: no-op
                 .spawn([slot, i] {
                   EXPECT_EQ(*slot, i); // strict order via explicit edges
                   *slot += 1;
                 });
    }
    prev.wait();
  });
  rt.barrier();
  for (int s = 0; s < kSpawners; ++s) EXPECT_EQ(seq[s], kTasks);
}

TEST(ConcurrentSpawn, ShardCountOneMatchesShardedBehaviour) {
  // The OSS_DEP_SHARDS=1 escape hatch under concurrency: same program,
  // same results, single-lock domain.  (Edge-set parity with the sharded
  // domain is asserted bit-exactly in test_dep_domain's parity test and in
  // GraphEdgeParityAcrossShardCounts below.)
  for (const std::size_t shards : {std::size_t{1}, std::size_t{8}}) {
    oss::RuntimeConfig cfg = oss_test::env_config(3);
    cfg.dep_shards = shards;
    oss::Runtime rt(cfg);
    long a = 0, b = 0;
    on_threads(2, [&](int s) {
      long* slot = (s == 0) ? &a : &b;
      for (int i = 0; i < 100; ++i) {
        rt.task("t").inout(*slot).spawn([slot] { *slot += 2; });
      }
    });
    rt.barrier();
    EXPECT_EQ(a, 200) << "shards=" << shards;
    EXPECT_EQ(b, 200) << "shards=" << shards;
  }
}

TEST(ConcurrentSpawn, GraphEdgeParityAcrossShardCounts) {
  // Deterministic single-threaded spawn sequence, recorded graph: the edge
  // multiset with 8 shards must equal the single-lock domain's bit-exactly.
  // num_threads=1 keeps it deterministic — the owner thread executes only
  // at wait points, so no producer can retire mid-spawn and elide an edge.
  auto run = [](std::size_t shards) {
    oss::RuntimeConfig cfg = oss_test::env_config(1);
    cfg.dep_shards = shards;
    cfg.record_graph = true;
    oss::Runtime rt(cfg);
    std::vector<char> big(3 * kStripe);
    std::vector<int> small(64, 0);
    for (int lap = 0; lap < 3; ++lap) {
      rt.task("w").access(oss::region(big.data(), big.size(), oss::Mode::Out))
          .spawn([] {});
      rt.task("r").access(oss::region(big.data(), kStripe + 7, oss::Mode::In))
          .spawn([] {});
      rt.task("c").access(
            oss::region(big.data(), big.size(), oss::Mode::Commutative))
          .spawn([] {});
      rt.task("s").inout(small.data(), small.size()).spawn([] {});
      rt.task("x").in(small.data(), 8).out(big.data() + kStripe, 32).spawn([] {});
    }
    rt.barrier();
    auto edges = rt.graph_recorder()->edges();
    std::vector<std::tuple<std::uint64_t, std::uint64_t, int>> keys;
    keys.reserve(edges.size());
    for (const auto& e : edges) {
      keys.emplace_back(e.from, e.to, static_cast<int>(e.kind));
    }
    std::sort(keys.begin(), keys.end());
    return keys;
  };
  const auto single = run(1);
  const auto sharded = run(8);
  EXPECT_FALSE(single.empty());
  EXPECT_EQ(single, sharded);
}

// Quiescence races foreign spawners: while four foreign threads spawn
// chains into the root context, the owning thread keeps calling taskwait()
// and barrier(), so the domain's quiescence check (re-checked under each
// shard lock) races live registrations, and the chains outgrow the sweep
// floor so sweeps run too.  Forgetting a producer that is still running
// would let two links of one chain overlap: a lost update here, a race
// under TSan.
TEST(ConcurrentSpawn, QuiescenceAndSweepsRaceForeignSpawners) {
  constexpr int kSpawners = 4;
  constexpr int kTasks = 3000;
  oss::Runtime rt(oss_test::env_config(3));
  std::vector<long> slots(kSpawners, 0);
  std::atomic<int> done{0};
  std::thread waiter([&] {
    int round = 0;
    while (done.load(std::memory_order_acquire) < kSpawners) {
      if (++round % 2 == 0) {
        rt.taskwait();
      } else {
        rt.barrier();
      }
    }
  });
  on_threads(kSpawners, [&](int s) {
    long* slot = &slots[static_cast<std::size_t>(s)];
    for (int i = 0; i < kTasks; ++i) {
      rt.task("link").inout(*slot).spawn([slot] { *slot += 1; });
    }
    done.fetch_add(1, std::memory_order_release);
  });
  waiter.join();
  rt.barrier();
  for (int s = 0; s < kSpawners; ++s) {
    EXPECT_EQ(slots[static_cast<std::size_t>(s)], kTasks) << "spawner " << s;
  }
  EXPECT_EQ(rt.pending_tasks(), 0u);
}

} // namespace
