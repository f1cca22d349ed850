// Fuzz tests for the interval-store dependency domain.
//
// 1. Oracle check: random byte-range accesses are registered directly on a
//    DepDomain; a per-byte brute-force simulation derives every required
//    ordering (RAW/WAR/WAW at byte granularity); each required pair must be
//    covered by a *path* in the edge graph the domain built (direct edges
//    may legitimately be elided when transitively implied).
//
// 2. End-to-end check: the same random programs run on a real Runtime with
//    byte-level bodies; the final arena must match the serial execution
//    exactly (serial equivalence at byte granularity, stressing interval
//    splitting under partial overlaps).
//
// 3. Forgetting history: the oracle check again with quiescent points
//    (every task so far retires, the domain forgets) at random places and
//    a sweep floor of 1, over 1 and 8 shards; and held programs over all
//    five modes whose edge multisets and inherited homes hash to constants
//    read from the domain that never forgot history.
#include "ompss/ompss.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <tuple>
#include <vector>

namespace {

struct FuzzAccess {
  std::size_t begin;
  std::size_t end;
  oss::Mode mode;
};

struct FuzzTaskSpec {
  std::vector<FuzzAccess> accesses;
};

/// Random program over [0, arena); modes In/Out/InOut, or all five
/// (adding Commutative/Concurrent) when `groups` is set.
std::vector<FuzzTaskSpec> make_program(std::uint32_t seed, std::size_t arena,
                                       int tasks, bool groups = false) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<std::size_t> pos(0, arena - 1);
  std::uniform_int_distribution<int> len(1, static_cast<int>(arena / 4));
  std::uniform_int_distribution<int> mode(0, groups ? 4 : 2);
  std::uniform_int_distribution<int> naccess(1, 3);

  std::vector<FuzzTaskSpec> prog(static_cast<std::size_t>(tasks));
  for (auto& t : prog) {
    const int n = naccess(rng);
    for (int a = 0; a < n; ++a) {
      const std::size_t b = pos(rng);
      const std::size_t e = std::min(arena, b + static_cast<std::size_t>(len(rng)));
      if (b >= e) continue;
      t.accesses.push_back({b, e, static_cast<oss::Mode>(mode(rng))});
    }
  }
  return prog;
}

/// Brute-force per-byte hazard derivation.
std::vector<std::pair<std::size_t, std::size_t>> required_orderings(
    const std::vector<FuzzTaskSpec>& prog, std::size_t arena) {
  struct ByteHistory {
    int last_writer = -1;
    std::vector<int> readers;
  };
  std::vector<ByteHistory> hist(arena);
  std::vector<std::pair<std::size_t, std::size_t>> req;

  for (std::size_t i = 0; i < prog.size(); ++i) {
    // First all reads, then all writes (a task's own accesses don't
    // self-conflict).
    for (const auto& a : prog[i].accesses) {
      if (a.mode == oss::Mode::Out) continue;
      for (std::size_t b = a.begin; b < a.end; ++b) {
        if (hist[b].last_writer >= 0 &&
            static_cast<std::size_t>(hist[b].last_writer) != i) {
          req.emplace_back(static_cast<std::size_t>(hist[b].last_writer), i);
        }
      }
    }
    for (const auto& a : prog[i].accesses) {
      if (a.mode == oss::Mode::In) continue;
      for (std::size_t b = a.begin; b < a.end; ++b) {
        if (hist[b].last_writer >= 0 &&
            static_cast<std::size_t>(hist[b].last_writer) != i) {
          req.emplace_back(static_cast<std::size_t>(hist[b].last_writer), i);
        }
        for (int r : hist[b].readers) {
          if (static_cast<std::size_t>(r) != i)
            req.emplace_back(static_cast<std::size_t>(r), i);
        }
      }
    }
    // Update history.
    for (const auto& a : prog[i].accesses) {
      if (a.mode == oss::Mode::Out) continue;
      for (std::size_t b = a.begin; b < a.end; ++b)
        hist[b].readers.push_back(static_cast<int>(i));
    }
    for (const auto& a : prog[i].accesses) {
      if (a.mode == oss::Mode::In) continue;
      for (std::size_t b = a.begin; b < a.end; ++b) {
        hist[b].last_writer = static_cast<int>(i);
        hist[b].readers.clear();
      }
    }
  }
  return req;
}

class DomainFuzzTest : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(DomainFuzzTest, EdgeGraphCoversEveryByteLevelHazard) {
  constexpr std::size_t kArena = 48;
  constexpr int kTasks = 60;
  const auto prog = make_program(GetParam(), kArena, kTasks);

  // Register everything on a raw domain (tasks never execute).
  alignas(16) static char arena_storage[kArena];
  oss::DepDomain domain;
  auto ctx = std::make_shared<oss::TaskContext>();
  std::vector<oss::TaskPtr> tasks;
  std::vector<std::vector<std::size_t>> succ(prog.size());

  for (std::size_t i = 0; i < prog.size(); ++i) {
    oss::AccessList acc;
    for (const auto& a : prog[i].accesses) {
      acc.push_back(oss::region(arena_storage + a.begin, a.end - a.begin, a.mode));
    }
    auto t = oss::make_task(i + 1, [] {}, std::move(acc), ctx, "");
    domain.register_task(t, [&](const oss::TaskPtr& from, const oss::TaskPtr& to,
                                oss::DepKind) {
      succ[from->id() - 1].push_back(to->id() - 1);
    });
    tasks.push_back(std::move(t));
  }

  // Reachability closure (edges always point from lower to higher id).
  std::vector<std::vector<bool>> reach(prog.size(),
                                       std::vector<bool>(prog.size(), false));
  for (std::size_t i = prog.size(); i-- > 0;) {
    for (std::size_t j : succ[i]) {
      reach[i][j] = true;
      for (std::size_t k = 0; k < prog.size(); ++k) {
        if (reach[j][k]) reach[i][k] = true;
      }
    }
  }

  for (const auto& [from, to] : required_orderings(prog, kArena)) {
    EXPECT_TRUE(reach[from][to])
        << "missing ordering " << from << " -> " << to << " (seed "
        << GetParam() << ")";
  }
}

TEST_P(DomainFuzzTest, RuntimeByteLevelSerialEquivalence) {
  constexpr std::size_t kArena = 48;
  constexpr int kTasks = 80;
  const auto prog = make_program(GetParam() + 7777, kArena, kTasks);

  auto run_body = [&](std::vector<std::uint8_t>& mem, std::size_t task_idx) {
    // Deterministic function of everything the task reads.
    std::uint32_t h = static_cast<std::uint32_t>(task_idx) * 2654435761u + 1u;
    for (const auto& a : prog[task_idx].accesses) {
      if (a.mode == oss::Mode::Out) continue;
      for (std::size_t b = a.begin; b < a.end; ++b) {
        h = h * 31u + mem[b];
      }
    }
    for (const auto& a : prog[task_idx].accesses) {
      if (a.mode == oss::Mode::In) continue;
      for (std::size_t b = a.begin; b < a.end; ++b) {
        mem[b] = static_cast<std::uint8_t>(h >> (b % 24));
      }
    }
  };

  // Serial reference.
  std::vector<std::uint8_t> expected(kArena, 1);
  for (std::size_t i = 0; i < prog.size(); ++i) run_body(expected, i);

  // Parallel runs at several thread counts.
  for (std::size_t threads : {2u, 4u}) {
    std::vector<std::uint8_t> mem(kArena, 1);
    oss::Runtime rt(threads);
    for (std::size_t i = 0; i < prog.size(); ++i) {
      oss::AccessList acc;
      for (const auto& a : prog[i].accesses) {
        acc.push_back(oss::region(mem.data() + a.begin, a.end - a.begin, a.mode));
      }
      rt.spawn(std::move(acc), [&run_body, &mem, i] { run_body(mem, i); });
    }
    rt.taskwait();
    EXPECT_EQ(mem, expected) << "seed " << GetParam() << " threads " << threads;
  }
}

/// Marks `t` finished the way a retiring worker does.
void retire(const oss::TaskPtr& t) {
  std::vector<oss::TaskPtr> succs;
  t->finish_take_successors(succs);
}

TEST_P(DomainFuzzTest, EdgeGraphCoversHazardsBetweenQuiescentPoints) {
  constexpr std::size_t kArena = 48;
  constexpr int kTasks = 120;
  const auto prog = make_program(GetParam() + 303, kArena, kTasks);
  alignas(16) static char arena_storage[kArena];

  for (const std::size_t shards : {std::size_t{1}, std::size_t{8}}) {
    // Quiescent points at random places: every task so far retires and the
    // domain forgets; hazards from before a point are then satisfied.
    std::mt19937 rng(GetParam());
    oss::DepDomain domain(shards, /*sweep_floor=*/1);
    auto ctx = std::make_shared<oss::TaskContext>();
    std::vector<oss::TaskPtr> tasks;
    std::vector<std::size_t> epoch(prog.size(), 0);
    std::size_t current_epoch = 0;
    std::vector<std::vector<std::size_t>> succ(prog.size());
    for (std::size_t i = 0; i < prog.size(); ++i) {
      oss::AccessList acc;
      for (const auto& a : prog[i].accesses) {
        acc.push_back(
            oss::region(arena_storage + a.begin, a.end - a.begin, a.mode));
      }
      auto t = oss::make_task(i + 1, [] {}, std::move(acc), ctx, "");
      domain.register_task(t, [&](const oss::TaskPtr& from,
                                  const oss::TaskPtr& to, oss::DepKind) {
        succ[from->id() - 1].push_back(to->id() - 1);
      });
      epoch[i] = current_epoch;
      tasks.push_back(std::move(t));
      if (rng() % 12 == 0) {
        for (const auto& x : tasks) {
          if (!x->finished()) retire(x);
        }
        domain.quiesce([] { return true; });
        ++current_epoch;
      }
    }

    std::vector<std::vector<bool>> reach(prog.size(),
                                         std::vector<bool>(prog.size(), false));
    for (std::size_t i = prog.size(); i-- > 0;) {
      for (std::size_t j : succ[i]) {
        EXPECT_EQ(epoch[i], epoch[j]) << "edge across a quiescent point";
        reach[i][j] = true;
        for (std::size_t k = 0; k < prog.size(); ++k) {
          if (reach[j][k]) reach[i][k] = true;
        }
      }
    }
    for (const auto& [from, to] : required_orderings(prog, kArena)) {
      if (epoch[from] != epoch[to]) continue; // retired before `to` spawned
      EXPECT_TRUE(reach[from][to])
          << "missing ordering " << from << " -> " << to << " (seed "
          << GetParam() << ", shards " << shards << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DomainFuzzTest,
                         ::testing::Values(11u, 22u, 33u, 44u, 55u, 66u),
                         [](const auto& info) {
                           return "seed" + std::to_string(info.param);
                         });

// Held byte-range programs over all five modes: producers retire only where
// the program says so (singly, or all at a quiescent point), some carry a
// home node, and the domain sweeps whenever a shard outgrows twice its
// entries.  The pinned hashes of the edge multiset and the inherited homes
// were read from the same programs run against the domain that held owning
// references and never forgot history.
std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= 0x100000001b3ull;
  }
  return h;
}

std::uint64_t held_program_hash(std::uint32_t seed, std::size_t shards) {
  constexpr std::size_t kArena = 64;
  constexpr int kTasks = 300;
  const auto prog = make_program(seed, kArena, kTasks, /*groups=*/true);
  alignas(16) static char arena_storage[kArena];
  std::mt19937 rng(seed * 7u + 1u);
  oss::DepDomain domain(shards, /*sweep_floor=*/1);
  auto ctx = std::make_shared<oss::TaskContext>();
  std::vector<oss::TaskPtr> tasks;
  std::vector<std::tuple<std::uint64_t, std::uint64_t, int>> edges;
  for (std::size_t i = 0; i < prog.size(); ++i) {
    oss::AccessList acc;
    for (const auto& a : prog[i].accesses) {
      acc.push_back(
          oss::region(arena_storage + a.begin, a.end - a.begin, a.mode));
    }
    auto t = oss::make_task(i + 1, [] {}, std::move(acc), ctx, "");
    if (rng() % 6 == 0) t->set_home_node(static_cast<int>(rng() % 3));
    domain.register_task(t, [&](const oss::TaskPtr& from,
                                const oss::TaskPtr& to, oss::DepKind k) {
      edges.emplace_back(from->id(), to->id(), static_cast<int>(k));
    });
    tasks.push_back(std::move(t));
    if (rng() % 4 == 0) retire(tasks[rng() % tasks.size()]);
    if (rng() % 40 == 0) {
      for (const auto& x : tasks) {
        if (!x->finished()) retire(x);
      }
      domain.quiesce([] { return true; });
    }
  }
  std::sort(edges.begin(), edges.end());
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const auto& [from, to, kind] : edges) {
    h = fnv1a(fnv1a(fnv1a(h, from), to), static_cast<std::uint64_t>(kind));
  }
  for (const auto& t : tasks) {
    h = fnv1a(h, static_cast<std::uint64_t>(t->inherited_node() + 1));
  }
  return fnv1a(h, edges.size());
}

TEST(DomainFuzzParity, HeldProgramsMatchPinnedHashes) {
  const std::pair<std::uint32_t, std::uint64_t> pinned[] = {
      {11, 5493454508510877200ull},
      {22, 14255295461394895250ull},
      {33, 7635845618821913118ull},
      {44, 2069587824808742930ull},
  };
  for (const auto& [seed, hash] : pinned) {
    for (const std::size_t shards : {std::size_t{1}, std::size_t{8}}) {
      EXPECT_EQ(held_program_hash(seed, shards), hash)
          << "seed " << seed << " shards " << shards;
    }
  }
}

} // namespace
