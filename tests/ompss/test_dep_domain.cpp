// Unit tests for the interval-store dependency domain: hazard discovery,
// interval splitting, edge deduplication, taskwait-on wait sets, the
// sharded (multi-lock) registration path, home-node inheritance votes, and
// forgetting finished history (quiescence, sweeps) without changing edges.
#include "ompss/dep_domain.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <random>
#include <tuple>
#include <vector>

namespace {

using oss::Access;
using oss::AccessList;
using oss::DepDomain;
using oss::DepKind;
using oss::Mode;
using oss::Task;
using oss::TaskPtr;

struct EdgeRec {
  std::uint64_t from;
  std::uint64_t to;
  DepKind kind;
};

class DepDomainTest : public ::testing::Test {
 protected:
  TaskPtr make_task(AccessList accesses) {
    return oss::make_task(++next_id_, [] {}, std::move(accesses), ctx_,
                                  "");
  }

  /// Registers and returns the edges discovered for this task.
  std::vector<EdgeRec> reg(const TaskPtr& t) {
    std::vector<EdgeRec> edges;
    domain_.register_task(t, [&](const TaskPtr& f, const TaskPtr& to, DepKind k) {
      edges.push_back({f->id(), to->id(), k});
    });
    return edges;
  }

  oss::ContextPtr ctx_ = std::make_shared<oss::TaskContext>();
  DepDomain domain_;
  std::uint64_t next_id_ = 0;
  char buf_[256] = {};
};

TEST_F(DepDomainTest, FirstTouchHasNoEdges) {
  auto t = make_task({oss::region(buf_, 16, Mode::InOut)});
  EXPECT_TRUE(reg(t).empty());
  EXPECT_EQ(t->preds, 0);
  EXPECT_EQ(domain_.entry_count(), 1u);
}

TEST_F(DepDomainTest, ReadAfterWriteCreatesRawEdge) {
  auto w = make_task({oss::region(buf_, 16, Mode::Out)});
  reg(w);
  auto r = make_task({oss::region(buf_, 16, Mode::In)});
  auto edges = reg(r);
  ASSERT_EQ(edges.size(), 1u);
  EXPECT_EQ(edges[0].from, w->id());
  EXPECT_EQ(edges[0].to, r->id());
  EXPECT_EQ(edges[0].kind, DepKind::Raw);
  EXPECT_EQ(r->preds, 1);
  ASSERT_EQ(w->successors.size(), 1u);
  EXPECT_EQ(w->successors[0].get(), r.get());
}

TEST_F(DepDomainTest, WriteAfterReadCreatesWarEdges) {
  auto r1 = make_task({oss::region(buf_, 16, Mode::In)});
  auto r2 = make_task({oss::region(buf_, 16, Mode::In)});
  reg(r1);
  reg(r2);
  EXPECT_EQ(r1->preds, 0);
  EXPECT_EQ(r2->preds, 0); // concurrent readers
  auto w = make_task({oss::region(buf_, 16, Mode::Out)});
  auto edges = reg(w);
  EXPECT_EQ(edges.size(), 2u);
  EXPECT_EQ(w->preds, 2);
  for (const auto& e : edges) EXPECT_EQ(e.kind, DepKind::War);
}

TEST_F(DepDomainTest, WriteAfterWriteCreatesWawEdge) {
  auto w1 = make_task({oss::region(buf_, 16, Mode::Out)});
  reg(w1);
  auto w2 = make_task({oss::region(buf_, 16, Mode::Out)});
  auto edges = reg(w2);
  ASSERT_EQ(edges.size(), 1u);
  EXPECT_EQ(edges[0].kind, DepKind::Waw);
}

TEST_F(DepDomainTest, InOutCreatesBothDirections) {
  auto a = make_task({oss::region(buf_, 16, Mode::InOut)});
  reg(a);
  auto b = make_task({oss::region(buf_, 16, Mode::InOut)});
  auto edges = reg(b);
  // a is both last writer (RAW/WAW) — deduplicated to one edge.
  ASSERT_EQ(edges.size(), 1u);
  EXPECT_EQ(b->preds, 1);
}

TEST_F(DepDomainTest, DisjointRegionsAreIndependent) {
  auto a = make_task({oss::region(buf_, 16, Mode::InOut)});
  auto b = make_task({oss::region(buf_ + 16, 16, Mode::InOut)});
  reg(a);
  EXPECT_TRUE(reg(b).empty());
  EXPECT_EQ(b->preds, 0);
  EXPECT_EQ(domain_.entry_count(), 2u);
}

TEST_F(DepDomainTest, PartialOverlapSplitsIntervals) {
  auto w = make_task({oss::region(buf_, 32, Mode::Out)});
  reg(w);
  // Reader of the second half only.
  auto r = make_task({oss::region(buf_ + 16, 16, Mode::In)});
  auto edges = reg(r);
  ASSERT_EQ(edges.size(), 1u);
  EXPECT_EQ(edges[0].kind, DepKind::Raw);
  // The original [0,32) entry must have been split.
  EXPECT_EQ(domain_.entry_count(), 2u);

  // A writer to the first half must depend on w (WAW) but NOT on r.
  auto w2 = make_task({oss::region(buf_, 16, Mode::Out)});
  auto edges2 = reg(w2);
  ASSERT_EQ(edges2.size(), 1u);
  EXPECT_EQ(edges2[0].from, w->id());
  EXPECT_EQ(edges2[0].kind, DepKind::Waw);
}

TEST_F(DepDomainTest, SpanningAccessCollectsAllSubRangeHazards) {
  auto w1 = make_task({oss::region(buf_, 8, Mode::Out)});
  auto w2 = make_task({oss::region(buf_ + 8, 8, Mode::Out)});
  reg(w1);
  reg(w2);
  auto r = make_task({oss::region(buf_, 16, Mode::In)});
  auto edges = reg(r);
  EXPECT_EQ(edges.size(), 2u);
  EXPECT_EQ(r->preds, 2);
}

TEST_F(DepDomainTest, EdgesAreDeduplicatedPerProducer) {
  // One producer writing two regions; one consumer reading both: one edge.
  auto w = make_task({oss::region(buf_, 8, Mode::Out),
                      oss::region(buf_ + 64, 8, Mode::Out)});
  reg(w);
  auto r = make_task({oss::region(buf_, 8, Mode::In),
                      oss::region(buf_ + 64, 8, Mode::In)});
  auto edges = reg(r);
  ASSERT_EQ(edges.size(), 1u);
  EXPECT_EQ(r->preds, 1);
}

TEST_F(DepDomainTest, FinishedProducersContributeNoEdges) {
  auto w = make_task({oss::region(buf_, 16, Mode::Out)});
  reg(w);
  w->mark_finished();
  auto r = make_task({oss::region(buf_, 16, Mode::In)});
  EXPECT_TRUE(reg(r).empty());
  EXPECT_EQ(r->preds, 0);
}

TEST_F(DepDomainTest, SelfDependencyIsIgnored) {
  // A task reading and writing the same region through separate accesses
  // must not depend on itself.
  auto t = make_task({oss::region(buf_, 16, Mode::In),
                      oss::region(buf_, 16, Mode::Out)});
  EXPECT_TRUE(reg(t).empty());
  EXPECT_EQ(t->preds, 0);
}

TEST_F(DepDomainTest, ZeroLengthAccessIsIgnored) {
  auto w = make_task({oss::region(buf_, 0, Mode::Out)});
  reg(w);
  EXPECT_EQ(domain_.entry_count(), 0u);
  auto r = make_task({oss::region(buf_, 16, Mode::In)});
  EXPECT_TRUE(reg(r).empty());
}

TEST_F(DepDomainTest, WriterResetsReaderList) {
  auto r1 = make_task({oss::region(buf_, 16, Mode::In)});
  reg(r1);
  auto w = make_task({oss::region(buf_, 16, Mode::Out)});
  reg(w);
  // A second writer depends only on w (WAW), not on the stale reader r1.
  auto w2 = make_task({oss::region(buf_, 16, Mode::Out)});
  auto edges = reg(w2);
  ASSERT_EQ(edges.size(), 1u);
  EXPECT_EQ(edges[0].from, w->id());
}

TEST_F(DepDomainTest, CollectOverlappingFindsUnfinishedTasks) {
  auto w = make_task({oss::region(buf_, 16, Mode::Out)});
  auto r = make_task({oss::region(buf_, 16, Mode::In)});
  auto other = make_task({oss::region(buf_ + 128, 16, Mode::Out)});
  reg(w);
  reg(r);
  reg(other);

  std::vector<TaskPtr> hits;
  const auto base = reinterpret_cast<std::uintptr_t>(buf_);
  domain_.collect_overlapping(base, base + 1, hits);
  // w (last writer) and r (reader) overlap byte 0; `other` does not.
  ASSERT_EQ(hits.size(), 2u);

  hits.clear();
  w->mark_finished();
  r->mark_finished();
  domain_.collect_overlapping(base, base + 1, hits);
  EXPECT_TRUE(hits.empty());
}

TEST_F(DepDomainTest, CollectOverlappingEmptyRangeFindsNothing) {
  auto w = make_task({oss::region(buf_, 16, Mode::Out)});
  reg(w);
  std::vector<TaskPtr> hits;
  const auto base = reinterpret_cast<std::uintptr_t>(buf_);
  domain_.collect_overlapping(base, base, hits);
  EXPECT_TRUE(hits.empty());
}

TEST_F(DepDomainTest, ManyInterleavedWindowsMaintainConsistentEntryCount) {
  // Sliding windows of 8 bytes with stride 4: forces repeated splitting.
  std::vector<TaskPtr> tasks;
  for (int i = 0; i + 8 <= 64; i += 4) {
    auto t = make_task({oss::region(buf_ + i, 8, Mode::InOut)});
    reg(t);
    tasks.push_back(t);
  }
  // Each consecutive pair overlaps by 4 bytes → chain of dependencies.
  for (std::size_t i = 1; i < tasks.size(); ++i) {
    EXPECT_GE(tasks[i]->preds, 1) << "window " << i;
  }
}

TEST_F(DepDomainTest, GroupJoinersAreOrderedAfterThePreviousEpoch) {
  // Regression: a commutative task that *joins* an open group must take the
  // same WAW edge against the previous writer that the group starter took —
  // otherwise it has no predecessors and can run concurrently with that
  // writer (caught by TSan in the runtime stress suite).
  auto w = make_task({oss::region(buf_, 8, Mode::InOut)});
  reg(w);
  auto c1 = make_task({oss::region(buf_, 8, Mode::Commutative)});
  auto e1 = reg(c1);
  ASSERT_EQ(e1.size(), 1u); // starter: edge from the writer
  EXPECT_EQ(e1[0].from, w->id());

  auto c2 = make_task({oss::region(buf_, 8, Mode::Commutative)});
  auto e2 = reg(c2);
  ASSERT_EQ(e2.size(), 1u) << "joiner must also depend on the previous epoch";
  EXPECT_EQ(e2[0].from, w->id());
  EXPECT_EQ(e2[0].kind, DepKind::Waw);
  EXPECT_EQ(c2->preds, 1);

  // Members stay unordered among themselves: no c1 -> c2 edge.
  for (const auto& e : e2) EXPECT_NE(e.from, c1->id());
}

// ---------------------------------------------------------------------------
// Inheritance voting: predecessors with resolved homes vote for the
// consumer's inherited_node, weighted by overlap bytes.
// ---------------------------------------------------------------------------

TEST_F(DepDomainTest, InheritanceVotePicksMaxBytesPredecessor) {
  auto small = make_task({oss::region(buf_, 16, Mode::Out)});
  auto large = make_task({oss::region(buf_ + 16, 64, Mode::Out)});
  small->set_home_node(0);
  large->set_home_node(1);
  reg(small);
  reg(large);
  // Consumer overlaps 16 bytes of node 0 and 64 bytes of node 1.
  auto r = make_task({oss::region(buf_, 80, Mode::In)});
  reg(r);
  EXPECT_EQ(r->inherited_node(), 1) << "max-bytes predecessor must win";
}

TEST_F(DepDomainTest, InheritanceVoteTieKeepsFirstSeenPredecessor) {
  auto a = make_task({oss::region(buf_, 32, Mode::Out)});
  auto b = make_task({oss::region(buf_ + 32, 32, Mode::Out)});
  a->set_home_node(1);
  b->set_home_node(0);
  reg(a);
  reg(b);
  auto r = make_task({oss::region(buf_, 64, Mode::In)});
  reg(r);
  EXPECT_EQ(r->inherited_node(), 1) << "equal bytes: first discovered wins";
}

TEST_F(DepDomainTest, FinishedPredecessorsStillVote) {
  // Retired producers donate no edge, but the data still lives on their
  // node — the vote must count them (chain inheritance through retirement).
  auto w = make_task({oss::region(buf_, 16, Mode::Out)});
  w->set_home_node(1);
  reg(w);
  w->mark_finished();
  auto r = make_task({oss::region(buf_, 16, Mode::In)});
  EXPECT_TRUE(reg(r).empty());
  EXPECT_EQ(r->inherited_node(), 1);
}

TEST_F(DepDomainTest, RetiredProducerIsSkippedButStillVotes) {
  // A retired producer is rejected before its successor lock: no edge, its
  // successor list untouched.  It still votes, and here outweighs the live
  // producer that does get the edge.
  auto retired = make_task({oss::region(buf_, 64, Mode::Out)});
  auto live = make_task({oss::region(buf_ + 64, 16, Mode::Out)});
  retired->set_home_node(1);
  live->set_home_node(0);
  reg(retired);
  reg(live);
  auto earlier = make_task({oss::region(buf_, 8, Mode::In)});
  ASSERT_EQ(reg(earlier).size(), 1u); // retired's successor while unfinished
  retired->mark_finished();
  auto r = make_task({oss::region(buf_, 80, Mode::In)});
  const auto edges = reg(r);
  ASSERT_EQ(edges.size(), 1u);
  EXPECT_EQ(edges[0].from, live->id());
  EXPECT_EQ(r->preds, 1);
  ASSERT_EQ(retired->successors.size(), 1u);
  EXPECT_EQ(retired->successors[0], earlier);
  EXPECT_EQ(r->inherited_node(), 1) << "64 retired bytes beat 16 live ones";
}

TEST_F(DepDomainTest, RepeatOverlapsAccumulateVoteBytes) {
  // One producer overlapping through two entries outvotes a single larger
  // entry of another node when its *total* bytes are larger.
  auto a = make_task({oss::region(buf_, 24, Mode::Out),
                      oss::region(buf_ + 64, 24, Mode::Out)});
  auto b = make_task({oss::region(buf_ + 32, 32, Mode::Out)});
  a->set_home_node(0);
  b->set_home_node(1);
  reg(a);
  reg(b);
  auto r = make_task({oss::region(buf_, 96, Mode::In)});
  reg(r);
  EXPECT_EQ(r->inherited_node(), 0) << "48 accumulated bytes beat 32";
}

// ---------------------------------------------------------------------------
// Sharded domains: stripes hash to independently-locked shards; semantics
// (edge sets, group exclusion) must not change.
// ---------------------------------------------------------------------------

constexpr std::size_t kStripe = std::size_t{1} << DepDomain::kStripeShift;

class ShardedDomainTest : public ::testing::Test {
 protected:
  ShardedDomainTest() : big_(4 * kStripe) {}

  TaskPtr make_task(AccessList accesses) {
    return oss::make_task(++next_id_, [] {}, std::move(accesses), ctx_,
                                  "");
  }

  std::vector<EdgeRec> reg(DepDomain& d, const TaskPtr& t) {
    std::vector<EdgeRec> edges;
    d.register_task(t, [&](const TaskPtr& f, const TaskPtr& to, DepKind k) {
      edges.push_back({f->id(), to->id(), k});
    });
    return edges;
  }

  char* big() { return big_.data(); }

  /// Precondition of the multi-shard assertions: big_'s stripes hash to at
  /// least two distinct shards under `d`.  The heap base is ASLR-dependent,
  /// so with 8 shards all ~4 stripes collide on one shard roughly once in
  /// 10^4 runs — the affected tests skip instead of failing spuriously.
  bool spans_shards(const DepDomain& d) const {
    const auto base = reinterpret_cast<std::uintptr_t>(big_.data());
    const auto end = base + big_.size();
    const std::size_t first = d.shard_of(base);
    for (std::uintptr_t p = (base / kStripe + 1) * kStripe; p < end;
         p += kStripe) {
      if (d.shard_of(p) != first) return true;
    }
    return false;
  }

  oss::ContextPtr ctx_ = std::make_shared<oss::TaskContext>();
  std::uint64_t next_id_ = 0;
  std::vector<char> big_; ///< spans ≥3 stripe boundaries
};

TEST_F(ShardedDomainTest, ShardOfIsStableWithinAStripe) {
  DepDomain d(8);
  EXPECT_EQ(d.shard_count(), 8u);
  const auto base = reinterpret_cast<std::uintptr_t>(big());
  const std::uintptr_t stripe_start = (base / kStripe + 1) * kStripe;
  EXPECT_EQ(d.shard_of(stripe_start), d.shard_of(stripe_start + kStripe - 1));
}

TEST_F(ShardedDomainTest, CrossStripeHazardIsOneDedupedEdge) {
  DepDomain d(8);
  if (!spans_shards(d)) GTEST_SKIP() << "ASLR put every stripe on one shard";
  auto w = make_task({oss::region(big(), big_.size(), Mode::Out)});
  auto receipt = d.register_task(w, nullptr);
  EXPECT_GE(receipt.shards_touched, 2u) << "a 4-stripe access must span shards";
  auto r = make_task({oss::region(big(), big_.size(), Mode::In)});
  auto edges = reg(d, r);
  ASSERT_EQ(edges.size(), 1u) << "same producer found in several shards: dedup";
  EXPECT_EQ(edges[0].kind, DepKind::Raw);
  EXPECT_EQ(r->preds, 1);
}

TEST_F(ShardedDomainTest, SingleStripeAccessTouchesOneShard) {
  DepDomain d(8);
  auto t = make_task({oss::region(big(), 64, Mode::InOut)});
  auto receipt = d.register_task(t, nullptr);
  EXPECT_EQ(receipt.shards_touched, 1u);
  EXPECT_FALSE(receipt.contended);
}

TEST_F(ShardedDomainTest, PartialOverlapAcrossStripeBoundary) {
  DepDomain d(8);
  const auto base = reinterpret_cast<std::uintptr_t>(big());
  // A window straddling the first stripe boundary inside the buffer.
  const std::uintptr_t boundary = (base / kStripe + 1) * kStripe;
  char* left = big() + (boundary - base - 32);
  auto w = make_task({oss::region(left, 64, Mode::Out)});
  reg(d, w);
  // Reader of only the right half (second stripe).
  auto r = make_task({oss::region(left + 32, 32, Mode::In)});
  auto edges = reg(d, r);
  ASSERT_EQ(edges.size(), 1u);
  EXPECT_EQ(edges[0].from, w->id());
  // Writer of only the left half must depend on w but NOT on r.
  auto w2 = make_task({oss::region(left, 32, Mode::Out)});
  auto edges2 = reg(d, w2);
  ASSERT_EQ(edges2.size(), 1u);
  EXPECT_EQ(edges2[0].from, w->id());
  EXPECT_EQ(edges2[0].kind, DepKind::Waw);
}

TEST_F(ShardedDomainTest, CommutativeGroupSpanningShardsStaysExclusive) {
  DepDomain d(8);
  if (!spans_shards(d)) GTEST_SKIP() << "ASLR put every stripe on one shard";
  auto c1 = make_task({oss::region(big(), big_.size(), Mode::Commutative)});
  auto c2 = make_task({oss::region(big(), big_.size(), Mode::Commutative)});
  auto e1 = reg(d, c1);
  auto e2 = reg(d, c2);
  EXPECT_TRUE(e1.empty());
  EXPECT_TRUE(e2.empty()) << "group members are unordered among themselves";
  // Every per-shard sub-range contributes its exclusion lock, and both
  // members hold the same set — they can never run concurrently.
  EXPECT_GE(c1->exclusion_locks().size(), 2u);
  EXPECT_EQ(c1->exclusion_locks().size(), c2->exclusion_locks().size());
  auto sorted_locks = [](const TaskPtr& t) {
    std::vector<std::mutex*> v;
    for (const auto& sp : t->exclusion_locks()) v.push_back(sp.get());
    std::sort(v.begin(), v.end());
    return v;
  };
  EXPECT_EQ(sorted_locks(c1), sorted_locks(c2));
  // A reader after the group depends on both members.
  auto r = make_task({oss::region(big(), big_.size(), Mode::In)});
  auto edges = reg(d, r);
  EXPECT_EQ(edges.size(), 2u);
  EXPECT_EQ(r->preds, 2);
}

TEST_F(ShardedDomainTest, CollectOverlappingSpansShards) {
  DepDomain d(8);
  auto w = make_task({oss::region(big(), big_.size(), Mode::Out)});
  reg(d, w);
  std::vector<TaskPtr> hits;
  const auto base = reinterpret_cast<std::uintptr_t>(big());
  d.collect_overlapping(base, base + big_.size(), hits);
  ASSERT_FALSE(hits.empty());
  for (const auto& h : hits) EXPECT_EQ(h.get(), w.get());
}

// Edge parity: the same deterministic spawn sequence must produce the same
// edge multiset under 1 shard (the classic single-lock domain) and under
// many shards — sharding changes locking, never semantics.
TEST_F(ShardedDomainTest, EdgeParityAcrossShardCounts) {
  using EdgeKey = std::tuple<std::uint64_t, std::uint64_t, int>;
  auto run = [&](std::size_t shards) {
    DepDomain d(shards);
    next_id_ = 0; // identical task ids across runs
    std::vector<EdgeKey> edges;
    auto reg_collect = [&](const TaskPtr& t) {
      d.register_task(t,
                      [&](const TaskPtr& f, const TaskPtr& to, DepKind k) {
                        edges.emplace_back(f->id(), to->id(),
                                           static_cast<int>(k));
                      });
    };
    // A mixed sequence exercising every mode, partial overlaps, stripe
    // crossings, and group open/close transitions.
    char* p = big();
    reg_collect(make_task({oss::region(p, big_.size(), Mode::Out)}));
    reg_collect(make_task({oss::region(p, kStripe + 512, Mode::In)}));
    reg_collect(make_task({oss::region(p + kStripe, kStripe, Mode::In)}));
    reg_collect(make_task({oss::region(p + 512, 2 * kStripe, Mode::InOut)}));
    reg_collect(
        make_task({oss::region(p, big_.size(), Mode::Commutative)}));
    reg_collect(
        make_task({oss::region(p, big_.size(), Mode::Commutative)}));
    reg_collect(make_task({oss::region(p + 7, 15, Mode::Concurrent)}));
    reg_collect(make_task({oss::region(p, 3 * kStripe, Mode::Out)}));
    reg_collect(make_task({oss::region(p + kStripe / 2, kStripe, Mode::In),
                           oss::region(p + 3 * kStripe, 64, Mode::Out)}));
    std::sort(edges.begin(), edges.end());
    return edges;
  };
  const auto single = run(1);
  const auto sharded = run(8);
  EXPECT_EQ(single, sharded);
  EXPECT_FALSE(single.empty());
}

TEST_F(ShardedDomainTest, OneShardMatchesLegacyEntryLayout) {
  // The escape hatch: shards=1 must not split accesses at stripe
  // boundaries — entry counts stay what the classic domain produced.
  DepDomain d1(1);
  auto t = make_task({oss::region(big(), big_.size(), Mode::Out)});
  d1.register_task(t, nullptr);
  EXPECT_EQ(d1.entry_count(), 1u);
  DepDomain d8(8);
  if (!spans_shards(d8)) GTEST_SKIP() << "ASLR put every stripe on one shard";
  auto t8 = make_task({oss::region(big(), big_.size(), Mode::Out)});
  d8.register_task(t8, nullptr);
  EXPECT_GE(d8.entry_count(), 2u) << "sharded path splits at stripe runs";
}

TEST_F(DepDomainTest, GroupJoinersAreOrderedAfterPreviousReaders) {
  auto w = make_task({oss::region(buf_, 8, Mode::Out)});
  reg(w);
  auto r = make_task({oss::region(buf_, 8, Mode::In)});
  reg(r);
  auto c1 = make_task({oss::region(buf_, 8, Mode::Concurrent)});
  reg(c1);
  auto c2 = make_task({oss::region(buf_, 8, Mode::Concurrent)});
  auto e2 = reg(c2);
  // Joiner must carry the WAR edge from the reader (and the WAW from the
  // writer), exactly like the starter.
  bool war_from_reader = false;
  for (const auto& e : e2) {
    if (e.from == r->id() && e.kind == DepKind::War) war_from_reader = true;
    EXPECT_NE(e.from, c1->id()); // still unordered within the group
  }
  EXPECT_TRUE(war_from_reader);
  EXPECT_EQ(c2->preds, 2); // writer + reader
}

// ---------------------------------------------------------------------------
// Forgetting finished history: quiescence, sweeps and the interval store.
// ---------------------------------------------------------------------------

/// Marks `t` finished the way a retiring worker does.
void retire(const TaskPtr& t) {
  std::vector<TaskPtr> succs;
  t->finish_take_successors(succs);
}

TEST_F(DepDomainTest, QuiesceForgetsHistoryAndReleasesRetainedTasks) {
  auto w = make_task({oss::region(buf_, 16, Mode::Out)});
  auto r = make_task({oss::region(buf_, 16, Mode::In)});
  reg(w);
  reg(r);
  EXPECT_EQ(domain_.retained_count(), 2u);
  EXPECT_EQ(w.use_count(), 2) << "the handle and the shard's reference";
  retire(w);
  retire(r);
  domain_.quiesce([] { return true; });
  EXPECT_EQ(domain_.retained_count(), 0u);
  EXPECT_EQ(w.use_count(), 1);
  EXPECT_EQ(domain_.entry_count(), 1u) << "the interval survives, empty";
  // Nothing of the old generation is visible any more.
  std::vector<TaskPtr> hits;
  const auto base = reinterpret_cast<std::uintptr_t>(buf_);
  domain_.collect_overlapping(base, base + 16, hits);
  EXPECT_TRUE(hits.empty());
  auto w2 = make_task({oss::region(buf_, 16, Mode::Out)});
  EXPECT_TRUE(reg(w2).empty());
  auto r2 = make_task({oss::region(buf_, 8, Mode::In)});
  auto edges = reg(r2);
  ASSERT_EQ(edges.size(), 1u);
  EXPECT_EQ(edges[0].from, w2->id());
}

TEST_F(DepDomainTest, QuiesceKeepsHistoryWhileAChildIsLive) {
  auto w = make_task({oss::region(buf_, 16, Mode::Out)});
  reg(w);
  domain_.quiesce([] { return false; });
  EXPECT_EQ(domain_.retained_count(), 1u);
  auto r = make_task({oss::region(buf_, 16, Mode::In)});
  EXPECT_EQ(reg(r).size(), 1u);
}

TEST_F(DepDomainTest, QuiesceWithAHomedTaskKeepsOnlyHomedProducers) {
  auto head = make_task({oss::region(buf_, 32, Mode::Out)});
  head->set_home_node(1);
  reg(head);
  auto other = make_task({oss::region(buf_ + 64, 32, Mode::Out)});
  reg(other);
  retire(head);
  retire(other);
  domain_.quiesce([] { return true; });
  EXPECT_EQ(domain_.retained_count(), 1u) << "only the homed head survives";
  EXPECT_EQ(other.use_count(), 1);
  auto tail = make_task({oss::region(buf_, 32, Mode::In),
                         oss::region(buf_ + 64, 32, Mode::In)});
  EXPECT_TRUE(reg(tail).empty());
  EXPECT_EQ(tail->inherited_node(), 1) << "finished homed producers vote";
}

TEST(DepDomainSweep, DropsOnlyFinishedHomelessProducers) {
  auto ctx = std::make_shared<oss::TaskContext>();
  DepDomain d(1, /*sweep_floor=*/1);
  char buf[64] = {};
  std::uint64_t id = 0;
  auto make = [&](Mode m) {
    return oss::make_task(++id, [] {}, {oss::region(buf, 16, m)}, ctx, "");
  };
  auto head = make(Mode::Out);
  head->set_home_node(1);
  d.register_task(head, nullptr);
  retire(head);
  std::vector<TaskPtr> readers;
  for (int i = 0; i < 8; ++i) {
    readers.push_back(make(Mode::In));
    d.register_task(readers.back(), nullptr);
    if (i % 2 == 0) retire(readers.back());
  }
  // One entry, so the shard sweeps once it retains more than two tasks,
  // then again each time the survivors doubled: the readers finished
  // before a sweep are gone, the live ones and the homed head stay.
  EXPECT_EQ(d.entry_count(), 1u);
  EXPECT_LT(d.retained_count(), 9u);
  EXPECT_EQ(readers[0].use_count(), 1) << "released by the first sweep";
  EXPECT_EQ(readers[2].use_count(), 1) << "released by the second sweep";
  EXPECT_EQ(head.use_count(), 2) << "homed finished producer still named";
  for (int i = 1; i < 8; i += 2) EXPECT_EQ(readers[i].use_count(), 2);
  // A writer still takes WAR edges from every live reader, and the tail
  // still inherits the head's home.
  std::vector<std::uint64_t> from;
  auto w = make(Mode::Out);
  d.register_task(w, [&](const TaskPtr& f, const TaskPtr&, DepKind) {
    from.push_back(f->id());
  });
  std::sort(from.begin(), from.end());
  EXPECT_EQ(from, (std::vector<std::uint64_t>{3, 5, 7, 9}));
  EXPECT_EQ(w->inherited_node(), 1);
}

TEST(DepDomainStore, RandomOrderRegionsKeepTheirOwnHistory) {
  // Enough distinct regions to split leaves many times, inserted in random
  // order: every reader must find exactly its own region's writer.
  constexpr std::size_t kRegions = 5000;
  auto ctx = std::make_shared<oss::TaskContext>();
  DepDomain d(1);
  std::vector<std::uint64_t> words(2 * kRegions);
  std::vector<std::size_t> order(kRegions);
  for (std::size_t i = 0; i < kRegions; ++i) order[i] = i;
  std::shuffle(order.begin(), order.end(), std::mt19937(7));
  std::vector<TaskPtr> writer(kRegions);
  std::uint64_t id = 0;
  for (const std::size_t i : order) {
    writer[i] = oss::make_task(++id, [] {}, {oss::out(words[2 * i])}, ctx, "");
    d.register_task(writer[i], nullptr);
  }
  EXPECT_EQ(d.entry_count(), kRegions);
  std::shuffle(order.begin(), order.end(), std::mt19937(8));
  for (const std::size_t i : order) {
    // Each reader covers its word and the unused gap after it.
    auto r = oss::make_task(++id, [] {}, {oss::region(&words[2 * i], 16, Mode::In)},
                            ctx, "");
    std::vector<std::uint64_t> from;
    d.register_task(r, [&](const TaskPtr& f, const TaskPtr&, DepKind k) {
      EXPECT_EQ(k, DepKind::Raw);
      from.push_back(f->id());
    });
    ASSERT_EQ(from.size(), 1u) << "region " << i;
    EXPECT_EQ(from[0], writer[i]->id());
  }
  EXPECT_EQ(d.entry_count(), 2 * kRegions) << "each gap became an entry";
}

// ---------------------------------------------------------------------------
// Edge parity with held producers.  A deterministic program registers
// straight into a domain: producers are held (never run) and retire only
// where the program says so; at random quiescent points every task so far
// retires and the domain is quiesced, and a sweep floor of 1 makes the
// shards sweep whenever they outgrow twice their entries.  The program
// covers in/out/inout, commutative/concurrent groups, explicit `.after`
// edges, homed producers and partial overlaps across stripe boundaries.
// The edge multiset and every inherited home are hashed; the pinned
// constants were read from this program run against the domain that held
// owning references in a std::map and never forgot history, so forgetting
// finished history changes nothing a later registration sees.
// ---------------------------------------------------------------------------

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= 0x100000001b3ull;
  }
  return h;
}

struct ParityResult {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  std::size_t edges = 0;
};

ParityResult run_held_program(std::uint32_t seed, std::size_t shards) {
  constexpr std::size_t kTasks = 500;
  // Stripe-aligned arena, so offsets relative to it (and the overlaps they
  // make) do not depend on where the heap put it.
  std::vector<char> storage(5 * kStripe);
  const auto raw = reinterpret_cast<std::uintptr_t>(storage.data());
  char* const base = storage.data() + ((kStripe - raw % kStripe) % kStripe);

  std::mt19937 rng(seed);
  auto ctx = std::make_shared<oss::TaskContext>();
  auto d = std::make_unique<DepDomain>(shards, /*sweep_floor=*/1);
  std::vector<TaskPtr> tasks;
  std::vector<std::tuple<std::uint64_t, std::uint64_t, int>> edges;
  const oss::EdgeSink sink = [&](const TaskPtr& f, const TaskPtr& to,
                                 DepKind k) {
    edges.emplace_back(f->id(), to->id(), static_cast<int>(k));
  };
  const Mode modes[] = {Mode::In,    Mode::In,          Mode::In,
                        Mode::Out,   Mode::Out,         Mode::InOut,
                        Mode::InOut, Mode::Commutative, Mode::Concurrent};
  const std::size_t lengths[] = {32, 96, 160, 300};
  for (std::size_t i = 0; i < kTasks; ++i) {
    AccessList acc;
    const std::size_t n = 1 + rng() % 3;
    for (std::size_t a = 0; a < n; ++a) {
      // Windows around the three interior stripe boundaries, now and then
      // one spanning a whole stripe.
      char* const anchor = base + kStripe * (1 + rng() % 3);
      const Mode m = modes[rng() % 9];
      if (rng() % 20 == 0) {
        acc.push_back(oss::region(anchor - 1000, kStripe + 2000, m));
      } else {
        const auto off = static_cast<std::ptrdiff_t>(rng() % 24) - 12;
        acc.push_back(oss::region(anchor + off * 48, lengths[rng() % 4], m));
      }
    }
    TaskPtr t = oss::make_task(i + 1, [] {}, std::move(acc), ctx, "");
    if (rng() % 8 == 0) t->set_home_node(static_cast<int>(rng() % 2));
    t->preds.store(1, std::memory_order_relaxed); // spawn guard
    d->register_task(t, sink);
    if (!tasks.empty() && rng() % 6 == 0) {
      oss::add_explicit_edge(tasks[rng() % tasks.size()], t, sink);
    }
    tasks.push_back(t);
    if (rng() % 10 == 0) retire(tasks[rng() % tasks.size()]);
    if (rng() % 60 == 0) {
      for (const TaskPtr& x : tasks) {
        if (!x->finished()) retire(x);
      }
      d->quiesce([] { return true; });
    }
  }
  std::sort(edges.begin(), edges.end());
  ParityResult res;
  res.edges = edges.size();
  for (const auto& [from, to, kind] : edges) {
    res.hash = fnv1a(fnv1a(fnv1a(res.hash, from), to),
                     static_cast<std::uint64_t>(kind));
  }
  for (const TaskPtr& t : tasks) {
    res.hash = fnv1a(res.hash, static_cast<std::uint64_t>(t->inherited_node() + 1));
  }
  return res;
}

TEST(DepDomainParity, HeldProgramsMatchPinnedHashes) {
  struct Pinned {
    std::uint32_t seed;
    std::uint64_t hash;
    std::size_t edges;
  };
  const Pinned pinned[] = {
      {1, 8157276719165893801ull, 2144},
      {2, 2858188983262515743ull, 2079},
      {3, 7868377102266922548ull, 1861},
      {4, 17700741556371107590ull, 2052},
  };
  for (const Pinned& p : pinned) {
    for (const std::size_t shards : {std::size_t{1}, std::size_t{8}}) {
      const ParityResult r = run_held_program(p.seed, shards);
      EXPECT_EQ(r.hash, p.hash) << "seed " << p.seed << " shards " << shards;
      EXPECT_EQ(r.edges, p.edges) << "seed " << p.seed << " shards " << shards;
    }
  }
}

} // namespace
