// Property-based tests: randomized task graphs must execute with
// serial-equivalent results and respect every RAW/WAR/WAW hazard.
//
// Each random "program" has V variables and T tasks; every task reads a
// random subset and writes a random subset.  Task bodies compute a value
// that depends on everything they read, so ANY hazard violation changes the
// final state with overwhelming probability.  The expected state is computed
// by running the same program sequentially in spawn order — the definition
// of serial equivalence the OmpSs model guarantees.
//
// A second check records per-task start/end sequence numbers and verifies
// them against an independent reimplementation of the hazard rules
// (last-writer + readers-since-write per variable).
#include "ompss/ompss.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <random>
#include <tuple>
#include <vector>

namespace {

struct ProgramSpec {
  struct TaskSpec {
    std::vector<int> reads;
    std::vector<int> writes; // disjoint from reads; "inouts" appear in both
    std::vector<int> inouts;
  };
  int num_vars = 0;
  std::vector<TaskSpec> tasks;
};

ProgramSpec make_random_program(std::uint32_t seed, int num_vars, int num_tasks) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> var_dist(0, num_vars - 1);
  std::uniform_int_distribution<int> count_dist(0, 3);
  std::uniform_int_distribution<int> mode_dist(0, 2);

  ProgramSpec prog;
  prog.num_vars = num_vars;
  prog.tasks.resize(static_cast<std::size_t>(num_tasks));
  for (auto& t : prog.tasks) {
    const int n = 1 + count_dist(rng);
    std::vector<bool> used(static_cast<std::size_t>(num_vars), false);
    for (int i = 0; i < n; ++i) {
      const int v = var_dist(rng);
      if (used[static_cast<std::size_t>(v)]) continue;
      used[static_cast<std::size_t>(v)] = true;
      switch (mode_dist(rng)) {
        case 0: t.reads.push_back(v); break;
        case 1: t.writes.push_back(v); break;
        default: t.inouts.push_back(v); break;
      }
    }
  }
  return prog;
}

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  return h;
}

/// The task body computation, shared by parallel and serial execution.
std::uint64_t task_value(std::size_t task_idx, const ProgramSpec::TaskSpec& spec,
                         const std::vector<std::uint64_t>& vars) {
  std::uint64_t h = 0x517cc1b727220a95ull + task_idx;
  for (int v : spec.reads) h = mix(h, vars[static_cast<std::size_t>(v)]);
  for (int v : spec.inouts) h = mix(h, vars[static_cast<std::size_t>(v)]);
  return h;
}

std::vector<std::uint64_t> run_serial(const ProgramSpec& prog) {
  std::vector<std::uint64_t> vars(static_cast<std::size_t>(prog.num_vars), 1);
  for (std::size_t i = 0; i < prog.tasks.size(); ++i) {
    const auto& t = prog.tasks[i];
    const std::uint64_t val = task_value(i, t, vars);
    for (int v : t.writes) vars[static_cast<std::size_t>(v)] = val;
    for (int v : t.inouts) vars[static_cast<std::size_t>(v)] = val;
  }
  return vars;
}

using Param = std::tuple<std::uint32_t /*seed*/, std::size_t /*threads*/,
                         oss::SchedulerPolicy>;

class RandomDagTest : public ::testing::TestWithParam<Param> {};

TEST_P(RandomDagTest, SerialEquivalence) {
  const auto [seed, threads, policy] = GetParam();
  const ProgramSpec prog = make_random_program(seed, 12, 150);
  const std::vector<std::uint64_t> expected = run_serial(prog);

  oss::RuntimeConfig cfg = oss::RuntimeConfig::with_threads(threads);
  cfg.scheduler = policy;
  oss::Runtime rt(cfg);

  std::vector<std::uint64_t> vars(static_cast<std::size_t>(prog.num_vars), 1);
  for (std::size_t i = 0; i < prog.tasks.size(); ++i) {
    const auto& t = prog.tasks[i];
    oss::AccessList acc;
    for (int v : t.reads) acc.push_back(oss::in(vars[static_cast<std::size_t>(v)]));
    for (int v : t.writes) acc.push_back(oss::out(vars[static_cast<std::size_t>(v)]));
    for (int v : t.inouts) acc.push_back(oss::inout(vars[static_cast<std::size_t>(v)]));
    rt.spawn(std::move(acc), [&vars, &t, i] {
      const std::uint64_t val = task_value(i, t, vars);
      for (int v : t.writes) vars[static_cast<std::size_t>(v)] = val;
      for (int v : t.inouts) vars[static_cast<std::size_t>(v)] = val;
    });
  }
  rt.taskwait();

  EXPECT_EQ(vars, expected) << "seed=" << seed << " threads=" << threads;
}

// The same oracle with taskwaits and barriers at random points: each one
// finds the context quiescent and makes the domain forget its finished
// history, which must not change a single later edge.
TEST_P(RandomDagTest, SerialEquivalenceAcrossRandomTaskwaits) {
  const auto [seed, threads, policy] = GetParam();
  const ProgramSpec prog = make_random_program(seed + 500, 12, 150);
  const std::vector<std::uint64_t> expected = run_serial(prog);

  for (const std::size_t shards : {std::size_t{1}, std::size_t{8}}) {
    oss::RuntimeConfig cfg = oss::RuntimeConfig::with_threads(threads);
    cfg.scheduler = policy;
    cfg.dep_shards = shards;
    oss::Runtime rt(cfg);
    std::mt19937 rng(seed);

    std::vector<std::uint64_t> vars(static_cast<std::size_t>(prog.num_vars), 1);
    for (std::size_t i = 0; i < prog.tasks.size(); ++i) {
      const auto& t = prog.tasks[i];
      auto b = rt.task();
      for (int v : t.reads) b.in(vars[static_cast<std::size_t>(v)]);
      for (int v : t.writes) b.out(vars[static_cast<std::size_t>(v)]);
      for (int v : t.inouts) b.inout(vars[static_cast<std::size_t>(v)]);
      b.spawn([&vars, &t, i] {
        const std::uint64_t val = task_value(i, t, vars);
        for (int v : t.writes) vars[static_cast<std::size_t>(v)] = val;
        for (int v : t.inouts) vars[static_cast<std::size_t>(v)] = val;
      });
      const auto roll = rng() % 20;
      if (roll == 0) rt.taskwait();
      if (roll == 1) rt.barrier();
    }
    rt.taskwait();

    EXPECT_EQ(vars, expected) << "seed=" << seed << " threads=" << threads
                              << " shards=" << shards;
  }
}

TEST_P(RandomDagTest, HazardOrderingRespected) {
  const auto [seed, threads, policy] = GetParam();
  const ProgramSpec prog = make_random_program(seed + 1000, 8, 100);

  // Independent reimplementation of the hazard rules to derive required
  // orderings (producer must end before consumer starts).
  std::vector<std::pair<std::size_t, std::size_t>> required;
  {
    struct VarHistory {
      int last_writer = -1;
      std::vector<int> readers;
    };
    std::vector<VarHistory> hist(static_cast<std::size_t>(prog.num_vars));
    for (std::size_t i = 0; i < prog.tasks.size(); ++i) {
      const auto& t = prog.tasks[i];
      auto read = [&](int v) {
        auto& h = hist[static_cast<std::size_t>(v)];
        if (h.last_writer >= 0)
          required.emplace_back(static_cast<std::size_t>(h.last_writer), i);
        h.readers.push_back(static_cast<int>(i));
      };
      auto write = [&](int v) {
        auto& h = hist[static_cast<std::size_t>(v)];
        if (h.last_writer >= 0)
          required.emplace_back(static_cast<std::size_t>(h.last_writer), i);
        for (int r : h.readers) {
          if (static_cast<std::size_t>(r) != i)
            required.emplace_back(static_cast<std::size_t>(r), i);
        }
        h.last_writer = static_cast<int>(i);
        h.readers.clear();
      };
      for (int v : t.reads) read(v);
      for (int v : t.inouts) { read(v); }
      for (int v : t.writes) write(v);
      for (int v : t.inouts) { write(v); }
    }
  }

  oss::RuntimeConfig cfg = oss::RuntimeConfig::with_threads(threads);
  cfg.scheduler = policy;
  oss::Runtime rt(cfg);

  std::atomic<std::uint64_t> clock{0};
  std::vector<std::uint64_t> start_seq(prog.tasks.size(), 0);
  std::vector<std::uint64_t> end_seq(prog.tasks.size(), 0);
  std::vector<std::uint64_t> vars(static_cast<std::size_t>(prog.num_vars), 1);

  for (std::size_t i = 0; i < prog.tasks.size(); ++i) {
    const auto& t = prog.tasks[i];
    oss::AccessList acc;
    for (int v : t.reads) acc.push_back(oss::in(vars[static_cast<std::size_t>(v)]));
    for (int v : t.writes) acc.push_back(oss::out(vars[static_cast<std::size_t>(v)]));
    for (int v : t.inouts) acc.push_back(oss::inout(vars[static_cast<std::size_t>(v)]));
    rt.spawn(std::move(acc), [&, i] {
      start_seq[i] = ++clock;
      end_seq[i] = ++clock;
    });
  }
  rt.taskwait();

  for (const auto& [from, to] : required) {
    EXPECT_LT(end_seq[from], start_seq[to])
        << "hazard " << from << " -> " << to << " violated (seed=" << seed
        << ", threads=" << threads << ")";
  }
}

std::string param_name(const ::testing::TestParamInfo<Param>& info) {
  const auto [seed, threads, policy] = info.param;
  return "seed" + std::to_string(seed) + "_t" + std::to_string(threads) + "_" +
         oss::to_string(policy);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RandomDagTest,
    ::testing::Combine(::testing::Values(1u, 2u, 3u, 4u, 5u),
                       ::testing::Values(std::size_t{1}, std::size_t{2},
                                         std::size_t{4}),
                       ::testing::Values(oss::SchedulerPolicy::Fifo,
                                         oss::SchedulerPolicy::Locality,
                                         oss::SchedulerPolicy::WorkStealing)),
    param_name);

} // namespace
