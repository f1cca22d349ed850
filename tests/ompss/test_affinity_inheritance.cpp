// Property/fuzz test for dependency-chain affinity inheritance: random task
// chains with sparse explicit hints must satisfy one invariant — every
// task's resolved home_node() equals the nearest hinted ancestor's home
// (or -1 when no ancestor carries a hint).  Failures print the generating
// seed so the exact chain can be replayed.
//
// Inheritance is a *max-bytes vote* over the dependency predecessors that
// donate a home (docs/numa.md): with several hinted predecessors, the node
// backing the most overlap bytes wins (ties keep the first discovered).
// For a chain every link has exactly one predecessor, so the vote
// degenerates to "inherit the previous link's resolved home" and the
// nearest-hinted-ancestor invariant below is unchanged; the
// AffinityInheritanceVoting tests pin the multi-predecessor behaviour.
#include "ompss/ompss.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "env_config.hpp"

namespace {

oss::RuntimeConfig two_node_config(std::size_t threads) {
  return oss_test::forced_topology_config(threads, "2x2");
}

/// Spawns `links` chained tasks (inout on one slot per chain) whose hints
/// are decided by `rng` with probability `hint_ppm`/1e6, and checks the
/// invariant for every link.  Chains use data deps — the mechanism real
/// pipelines use — so the test also exercises edge discovery through the
/// dep domain's interval map.
void run_chain_property(std::uint32_t seed, std::size_t threads, int chains,
                        int links, int hint_ppm) {
  SCOPED_TRACE("seed=" + std::to_string(seed) +
               " threads=" + std::to_string(threads) +
               " chains=" + std::to_string(chains) +
               " links=" + std::to_string(links) +
               " hint_ppm=" + std::to_string(hint_ppm));
  std::mt19937 rng(seed);
  oss::Runtime rt(two_node_config(threads));
  ASSERT_EQ(rt.topology().num_nodes(), 2u);

  std::uniform_int_distribution<int> ppm(0, 999'999);
  std::uniform_int_distribution<int> node(0, 1);

  std::vector<long> slots(static_cast<std::size_t>(chains), 0);
  std::vector<std::vector<oss::TaskHandle>> handles(
      static_cast<std::size_t>(chains));
  std::vector<std::vector<int>> expected(static_cast<std::size_t>(chains));

  for (int l = 0; l < links; ++l) {
    for (int c = 0; c < chains; ++c) {
      const auto ci = static_cast<std::size_t>(c);
      long* slot = &slots[ci];
      auto b = rt.task("link");
      b.inout(*slot);
      int want = expected[ci].empty() ? -1 : expected[ci].back();
      if (ppm(rng) < hint_ppm) {
        const int n = node(rng);
        b.affinity(n);
        want = n; // nearest hinted ancestor is now this task itself
      }
      expected[ci].push_back(want);
      handles[ci].push_back(b.spawn([slot] { *slot += 1; }));
    }
  }
  rt.taskwait();

  for (int c = 0; c < chains; ++c) {
    const auto ci = static_cast<std::size_t>(c);
    EXPECT_EQ(slots[ci], links) << "chain " << c << " lost links";
    for (int l = 0; l < links; ++l) {
      const auto li = static_cast<std::size_t>(l);
      ASSERT_EQ(handles[ci][li].home_node(), expected[ci][li])
          << "chain " << c << " link " << l << " seed " << seed
          << " (replay: run_chain_property(" << seed << ", " << threads
          << ", " << chains << ", " << links << ", " << hint_ppm << "))";
    }
  }
}

TEST(AffinityInheritanceProperty, SparseHintsFixedSeeds) {
  // Deterministic sweep: sparse (5%), medium (25%), and hint-free chains.
  run_chain_property(1u, 4, 4, 40, 50'000);
  run_chain_property(2u, 4, 4, 40, 250'000);
  run_chain_property(3u, 2, 2, 60, 0);
  run_chain_property(4u, 1, 1, 100, 100'000); // single thread: fully ordered
}

TEST(AffinityInheritanceProperty, RandomSeeds) {
  // Fresh seeds every run; the failure message carries the replay recipe.
  std::random_device rd;
  for (int round = 0; round < 3; ++round) {
    const std::uint32_t seed = rd();
    run_chain_property(seed, 4, 3, 30, 120'000);
  }
}

TEST(AffinityInheritanceVoting, MaxBytesPredecessorWins) {
  // Two hinted producers of different region sizes; the unhinted consumer
  // reading both must inherit the node backing the most bytes — even
  // though the smaller producer's edge is discovered first.
  oss::Runtime rt(two_node_config(2));
  ASSERT_EQ(rt.topology().num_nodes(), 2u);
  std::vector<char> small(64), large(256);
  auto a = rt.task("small")
               .out(small.data(), small.size())
               .affinity(0)
               .spawn([] {});
  auto b = rt.task("large")
               .out(large.data(), large.size())
               .affinity(1)
               .spawn([] {});
  auto c = rt.task("reduce")
               .in(small.data(), small.size()) // node-0 donor found first
               .in(large.data(), large.size())
               .spawn([] {});
  rt.taskwait();
  EXPECT_EQ(a.home_node(), 0);
  EXPECT_EQ(b.home_node(), 1);
  EXPECT_EQ(c.home_node(), 1) << "256 donated bytes must outvote 64";
}

TEST(AffinityInheritanceVoting, TieKeepsFirstDiscoveredPredecessor) {
  oss::Runtime rt(two_node_config(2));
  ASSERT_EQ(rt.topology().num_nodes(), 2u);
  std::vector<char> left(128), right(128);
  auto a = rt.task("left")
               .out(left.data(), left.size())
               .affinity(1)
               .spawn([] {});
  auto b = rt.task("right")
               .out(right.data(), right.size())
               .affinity(0)
               .spawn([] {});
  auto c = rt.task("consumer")
               .in(left.data(), left.size())
               .in(right.data(), right.size())
               .spawn([] {});
  rt.taskwait();
  (void)a;
  (void)b;
  EXPECT_EQ(c.home_node(), 1) << "equal bytes: first discovered donor wins";
}

TEST(AffinityInheritanceVoting, ExplicitHandleEdgeDonatesOnlyAsFallback) {
  // A handle edge has no overlap bytes; it donates a home only when the
  // region vote produced nothing.
  oss::Runtime rt(two_node_config(2));
  ASSERT_EQ(rt.topology().num_nodes(), 2u);
  long slot = 0;
  auto hinted = rt.task("hinted").affinity(1).spawn([] {});
  auto fallback = rt.task("fallback").after(hinted).spawn([] {});
  rt.taskwait();
  EXPECT_EQ(fallback.home_node(), 1) << "no region donors: handle edge wins";

  // A handle that already finished adds no edge but still donates, like a
  // retired region producer.
  auto late = rt.task("late").after(hinted).spawn([] {});
  rt.taskwait();
  EXPECT_EQ(late.home_node(), 1) << "a retired handle still donates";

  auto writer = rt.task("writer").inout(slot).affinity(0).spawn([] {});
  auto hinted2 = rt.task("hinted2").affinity(1).spawn([] {});
  auto both = rt.task("both").inout(slot).after(hinted2).spawn([] {});
  rt.taskwait();
  (void)writer;
  EXPECT_EQ(both.home_node(), 0)
      << "a region donor must outrank the explicit-edge fallback";
}

TEST(AffinityInheritanceProperty, HintsDissolveOnFlatTopology) {
  // Same generator on a single-node topology: every resolved home is -1,
  // hinted or not — the invariant's degenerate form.
  oss::RuntimeConfig cfg = oss_test::env_config(2);
  cfg.topology = "flat";
  oss::Runtime rt(cfg);
  long slot = 0;
  std::vector<oss::TaskHandle> hs;
  for (int i = 0; i < 20; ++i) {
    auto b = rt.task("link");
    b.inout(slot);
    if (i % 3 == 0) b.affinity(i % 2);
    hs.push_back(b.spawn([&slot] { slot += 1; }));
  }
  rt.taskwait();
  for (const auto& h : hs) EXPECT_EQ(h.home_node(), -1);
}

} // namespace
