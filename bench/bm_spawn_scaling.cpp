// bm_spawn_scaling — dependency-registration throughput under concurrent
// spawners: the acceptance bench for the sharded dependency domain
// (docs/dependencies.md).
//
// Two tiers, both swept over OSS_DEP_SHARDS ∈ {1, 16} × spawner threads:
//
//   DomainChurn/<shards>/<threads>  — raw DepDomain::register_task
//     throughput: each thread registers tasks with small inout regions
//     cycling through its own arena (disjoint address ranges → disjoint
//     shards when sharded; one serializing lock when shards=1).  This is
//     the pure tentpole contrast — no scheduler, no execution.
//
//   SpawnScaling/<shards>/<threads> — end-to-end Runtime::spawn_task from
//     N foreign threads (per-thread dependency chains over disjoint
//     arenas), drained by a barrier.  What applications actually feel.
//
//   DomainRandomInsert/<regions> — one thread registers writers of that
//     many distinct regions in random order into a fresh single-shard
//     domain: the interval store's insert cost when nothing repeats (a
//     flat sorted array would move half of it per insert).  Not gated.
//
// The sharded domain must beat the single-lock baseline at 4+ spawner
// threads on multi-core machines; on a single core the contrast collapses
// to lock-handoff overhead (the CI gate normalizes and only arms between
// like machines — see bench/compare_bench.py and baseline_spawn.json).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <memory>
#include <random>
#include <thread>
#include <vector>

#include "ompss/ompss.hpp"

namespace {

constexpr std::size_t kArenaBytes = std::size_t{4} << 20; // 4 stripes' worth
constexpr std::size_t kRegionBytes = 256;
constexpr int kTasksPerThread = 2000;

/// One heap arena per spawner thread, far enough apart that their stripes
/// hash to different shards with overwhelming probability.
std::vector<std::unique_ptr<char[]>> make_arenas(int threads) {
  std::vector<std::unique_ptr<char[]>> arenas;
  arenas.reserve(static_cast<std::size_t>(threads));
  for (int i = 0; i < threads; ++i) {
    arenas.push_back(std::make_unique<char[]>(kArenaBytes));
  }
  return arenas;
}

// --- tier 1: raw registration churn ---------------------------------------

void BM_DomainChurn(benchmark::State& state) {
  const auto shards = static_cast<std::size_t>(state.range(0));
  const int threads = static_cast<int>(state.range(1));
  auto arenas = make_arenas(threads);
  auto ctx = std::make_shared<oss::TaskContext>(shards);

  for (auto _ : state) {
    oss::DepDomain domain(shards);
    std::atomic<std::uint64_t> ids{0};
    std::vector<std::thread> spawners;
    for (int t = 0; t < threads; ++t) {
      spawners.emplace_back([&, t] {
        char* arena = arenas[static_cast<std::size_t>(t)].get();
        oss::TaskPtr prev;
        for (int i = 0; i < kTasksPerThread; ++i) {
          // 256-byte windows sliding by half a window: task i overlaps
          // task i-1, so every registration inserts one real edge
          // (successor lock + preds increment included in the
          // measurement) — within a thread, never across threads.
          const std::size_t off =
              (static_cast<std::size_t>(i) * (kRegionBytes / 2)) %
              (kArenaBytes - kRegionBytes);
          auto task = oss::make_task(
              ids.fetch_add(1, std::memory_order_relaxed) + 1, [] {},
              oss::AccessList{oss::region(arena + off, kRegionBytes,
                                          oss::Mode::InOut)},
              ctx, "");
          domain.register_task(task, nullptr);
          // Retire the predecessor one step late: it was live while the
          // current task registered against it (the edge was real), and
          // successor lists still stay one entry short.
          if (prev) prev->mark_finished();
          prev = std::move(task);
        }
        if (prev) prev->mark_finished();
      });
    }
    for (auto& s : spawners) s.join();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          threads * kTasksPerThread);
  state.SetLabel(std::to_string(shards) + " shards/" +
                 std::to_string(threads) + "t");
}

// --- tier 2: end-to-end spawn scaling --------------------------------------

void BM_SpawnScaling(benchmark::State& state) {
  const auto shards = static_cast<std::size_t>(state.range(0));
  const int threads = static_cast<int>(state.range(1));
  auto arenas = make_arenas(threads);

  // Env-derived base so OSS_TRACE / OSS_PIN sweeps apply to this bench
  // (the tracing-overhead acceptance runs it with OSS_TRACE=full).
  oss::RuntimeConfig cfg = oss::RuntimeConfig::from_env();
  cfg.num_threads = 2;
  cfg.dep_shards = shards;
  oss::Runtime rt(cfg);

  for (auto _ : state) {
    std::atomic<long> hits{0};
    std::vector<std::thread> spawners;
    for (int t = 0; t < threads; ++t) {
      spawners.emplace_back([&, t] {
        char* arena = arenas[static_cast<std::size_t>(t)].get();
        for (int i = 0; i < kTasksPerThread; ++i) {
          // Same sliding overlap as DomainChurn: dependency chains form
          // within a spawner whenever execution lags the spawn burst.
          const std::size_t off =
              (static_cast<std::size_t>(i) * (kRegionBytes / 2)) %
              (kArenaBytes - kRegionBytes);
          rt.task("churn")
              .access(oss::region(arena + off, kRegionBytes,
                                  oss::Mode::InOut))
              .spawn([&hits] {
                hits.fetch_add(1, std::memory_order_relaxed);
              });
        }
      });
    }
    for (auto& s : spawners) s.join();
    rt.barrier();
    if (hits.load() != static_cast<long>(threads) * kTasksPerThread) {
      state.SkipWithError("lost tasks");
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          threads * kTasksPerThread);
  state.SetLabel(std::to_string(shards) + " shards/" +
                 std::to_string(threads) + "t");
}

// --- tier 3: interval-store inserts ----------------------------------------

void BM_DomainRandomInsert(benchmark::State& state) {
  const auto regions = static_cast<std::size_t>(state.range(0));
  auto ctx = std::make_shared<oss::TaskContext>();
  std::vector<char> arena(regions * 32);
  std::vector<oss::TaskPtr> tasks;
  tasks.reserve(regions);
  for (std::size_t i = 0; i < regions; ++i) {
    tasks.push_back(oss::make_task(
        i + 1, [] {},
        oss::AccessList{oss::region(arena.data() + i * 32, 16, oss::Mode::Out)},
        ctx, ""));
  }
  std::shuffle(tasks.begin(), tasks.end(), std::mt19937(42));
  for (auto _ : state) {
    oss::DepDomain domain(1);
    for (const oss::TaskPtr& t : tasks) domain.register_task(t, nullptr);
    benchmark::DoNotOptimize(domain.entry_count());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() *
                                                    regions));
}

} // namespace

BENCHMARK(BM_DomainRandomInsert)
    ->Name("DomainRandomInsert")
    ->Arg(10000)
    ->Arg(100000)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

BENCHMARK(BM_DomainChurn)
    ->Name("DomainChurn")
    ->Args({1, 1})
    ->Args({1, 2})
    ->Args({1, 4})
    ->Args({1, 8})
    ->Args({16, 1})
    ->Args({16, 2})
    ->Args({16, 4})
    ->Args({16, 8})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

BENCHMARK(BM_SpawnScaling)
    ->Name("SpawnScaling")
    ->Args({1, 1})
    ->Args({1, 4})
    ->Args({16, 1})
    ->Args({16, 4})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
