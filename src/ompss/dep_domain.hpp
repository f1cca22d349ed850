// dep_domain.hpp — sharded address-range dependency tracking.
//
// This is the mechanism behind the paper's central claim: "task dependencies
// are resolved at runtime, using the input/output specification of the
// function arguments."  A `DepDomain` maintains, for every byte range that
// any sibling task has declared, the *current writer set* (either the last
// writer, or an open commutative/concurrent group acting as a collective
// writer) and the *readers since that write*.  Registering a new task's
// accesses derives the hazards:
//
//   RAW  — `in`/`inout` after a write: edge from the writer set.
//   WAW  — writing modes after a write: edge from the writer set.
//   WAR  — writing modes after reads: edges from every reader since the
//          last write.
//
// Group modes:
//   Commutative — consecutive commutative accesses to a region join one
//     group: no edges among members (any order), but the runtime hands each
//     member the region's exclusion lock so they never run concurrently.
//   Concurrent — like commutative but without the lock (members synchronize
//     themselves).
//   A group is *closed* by any non-matching access; later accesses treat
//   the whole group as the last writer.
//
// Because OmpSs performs no automatic renaming (paper §3, observation 2),
// WAR and WAW are *real* edges here — which is exactly why the H.264 decoder
// needs manual renaming through circular buffers to pipeline.
//
// Concurrency (docs/dependencies.md): the address space is divided into
// fixed stripes of 2^kStripeShift bytes; each stripe hashes to one of a
// power-of-two number of *shards*, and each shard owns an interval store
// plus its own lock.  Registering a task splits its accesses at stripe
// boundaries, sorts the touched shard set, and locks the shards in shard-id
// order — the whole registration is atomic (no cyclic edge sets between
// concurrent spawners), deadlock-free, and the common single-shard case
// pays exactly one uncontended lock.  Overlapping byte ranges always share
// the stripes they overlap in, hence the shard, hence the lock — no hazard
// can be missed across shards.  With one shard no splitting happens at all
// and the domain behaves bit-exactly like the classic single-lock design
// (the OSS_DEP_SHARDS=1 escape hatch).
//
// Within each shard the interval store is keyed by region start.  Partially
// overlapping declarations split entries so each maximal sub-range carries
// its own history; this supports tasks declaring overlapping windows of the
// same array (e.g. halo exchanges).  The store is two-level and contiguous:
// sorted leaves of at most kLeafCap entries under a sorted vector of leaf
// start keys, so a lookup is two binary searches over flat arrays and an
// insert moves at most one leaf's entries.
//
// Entries name tasks by plain `Task*`.  Ownership lives in a per-shard
// *retained list*: one reference per task registered in the shard.  Each
// entry records the shard generation it was written in; entries of older
// generations read as empty history and are never dereferenced.  When a
// taskwait finds its context quiescent (every child retired), `quiesce`
// bumps the generation and releases the retained list, so a whole
// iteration's history is forgotten without touching one producer.  A
// *sweep* bounds domains that never quiesce: it drops finished producers
// that have no home node from the entries and releases the retained tasks
// no entry names any more.  Finished producers with a home node are kept —
// they still vote in chain affinity inheritance (docs/numa.md).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "ompss/access.hpp"
#include "ompss/task.hpp"

namespace oss {

/// Kind of dependency edge, for statistics and graph export.  `Explicit`
/// edges come from `TaskBuilder::after(handle)` rather than from region
/// overlap.
enum class DepKind : std::uint8_t { Raw, War, Waw, Explicit };

const char* to_string(DepKind k) noexcept;

/// Callback invoked for every edge discovered during registration.
/// Arguments: producer, consumer, kind.  The edge was inserted while the
/// producer was unfinished (the per-task successor lock linearizes edge
/// insertion against retirement), but the sink itself runs after that
/// lock is released — a racing producer may already be Finished when the
/// sink observes it, so sinks must not assume producer liveness beyond
/// the ids/kind they are passed.  Called while the registering thread
/// holds the shard locks of the consumer's regions, so sinks must not
/// re-enter the domain.
using EdgeSink = std::function<void(const TaskPtr&, const TaskPtr&, DepKind)>;

class TraceSystem;

/// Registers the explicit (handle-declared) edge producer → consumer:
/// increments `consumer->preds`, appends to the producer's successor list,
/// and reports a `DepKind::Explicit` edge to `sink` (and, when `trace` is
/// non-null and in full mode, to the trace stream).  Self-edges, null or
/// already-finished producers are ignored.  Returns true if an edge was
/// added.  Thread-safe via the producer's successor lock; the consumer must
/// still be unpublished (spawn guard held).
bool add_explicit_edge(const TaskPtr& producer, const TaskPtr& consumer,
                       const EdgeSink& sink, TraceSystem* trace = nullptr);

/// What one registration did, for the runtime's contention counters.
struct RegisterReceipt {
  std::uint32_t shards_touched = 0; ///< distinct shard locks taken
  bool contended = false;           ///< ≥1 lock was held by another spawner
};

class DepDomain {
 public:
  /// Default sweep floor: a shard sweeps once its retained list holds more
  /// than max(floor, 2 × its entry count) tasks.
  static constexpr std::size_t kSweepFloor = 4096;

  /// `shards` must be a power of two in [1, 256] (validated by
  /// RuntimeConfig; direct constructions round invalid counts up to the
  /// next power of two and clamp).  1 = classic single-lock domain.
  /// `sweep_floor` is the retained-list size below which no sweep runs
  /// (tests pass a tiny one to sweep constantly).
  explicit DepDomain(std::size_t shards = 1,
                     std::size_t sweep_floor = kSweepFloor);
  ~DepDomain();

  DepDomain(const DepDomain&) = delete;
  DepDomain& operator=(const DepDomain&) = delete;

  /// Registers `task`'s access list against the history of its siblings.
  /// For every hazard found, increments `task->preds`, appends `task` to the
  /// producer's successor list, and calls `sink` (if non-null).  Edges are
  /// deduplicated per (producer, consumer) pair within one registration.
  /// Commutative accesses additionally attach the region's exclusion lock
  /// to the task.  Predecessors with a resolved home node vote for the
  /// task's `inherited_node`, weighted by overlap bytes (max total wins;
  /// docs/numa.md).  Each touched shard retains one reference to `task`.
  ///
  /// Thread-safe: locks the touched shards in shard-id order for the whole
  /// registration.  Concurrent registrations of disjoint regions proceed in
  /// parallel.  The caller must hold the task's spawn guard (preds ≥ 1)
  /// until after this returns.
  ///
  /// When `trace` is non-null and in full mode, every discovered edge and
  /// any shard-lock contention are emitted to the trace stream.
  RegisterReceipt register_task(const TaskPtr& task, const EdgeSink& sink,
                                TraceSystem* trace = nullptr);

  /// Collects every unfinished task recorded for bytes overlapping
  /// [p, p+bytes) — the wait set of `taskwait on`.  Locks each shard in
  /// turn; tasks registered concurrently with the call may or may not be
  /// included (same contract callers already had: `taskwait on` covers
  /// previously spawned siblings).
  void collect_overlapping(std::uintptr_t begin, std::uintptr_t end,
                           std::vector<TaskPtr>& out) const;

  /// Forgets the history of every shard in which `quiescent()` holds while
  /// the shard's lock is held — the caller's promise that every task ever
  /// registered here has finished.  A shard whose retained tasks have no
  /// home node bumps its generation and releases its retained list (O(1)
  /// in the entries); one with a homed task sweeps instead, so homed
  /// producers keep voting, unless `keep_homed` is false (no task will
  /// register here again).  Called by taskwait, TaskGroup::wait and
  /// barrier once the context's children all retired.
  void quiesce(const std::function<bool()>& quiescent, bool keep_homed = true);

  /// Number of distinct interval entries currently tracked (for tests).
  std::size_t entry_count() const;

  /// Task references the shards currently retain (for tests).
  std::size_t retained_count() const;

  /// Shards this domain hashes to.
  [[nodiscard]] std::size_t shard_count() const noexcept {
    return shards_.size();
  }

  /// Shard index of an address under this domain's hash (tests/bench).
  [[nodiscard]] std::size_t shard_of(std::uintptr_t addr) const noexcept;

  /// Stripe granularity of the shard hash: addresses within the same
  /// 2^kStripeShift-byte stripe always share a shard, so typical task-sized
  /// regions touch exactly one shard.
  static constexpr unsigned kStripeShift = 20; // 1 MiB

 private:
  struct Entry {
    std::uintptr_t end = 0; ///< one past the last byte of the interval

    /// Shard generation the history below was written in; any other value
    /// means "no history" and the pointers must not be read.
    std::uint64_t gen = 0;

    /// Last regular writer (null when none, or when a group is the
    /// current writer set).
    Task* last_writer = nullptr;

    Mode group_mode = Mode::In; ///< Commutative or Concurrent when group set
    bool group_open = false;    ///< closed groups only act as writer set

    /// Open or closed commutative/concurrent group acting as the
    /// collective last writer (empty when none).
    std::vector<Task*> group;

    /// Exclusion lock shared by the commutative group members.
    std::shared_ptr<std::mutex> comm_lock;

    /// Readers since the current writer set was installed.
    std::vector<Task*> readers;

    /// Writer set and readers of the epoch *preceding* the open group.
    /// Members joining the group later must take the same WAW/WAR edges the
    /// group starter took: members are unordered among themselves, but the
    /// whole group is ordered after the previous epoch.  (Without this, a
    /// joiner had no predecessors at all and could run concurrently with
    /// the previous epoch's writer.)  Cleared when the group closes.
    std::vector<Task*> epoch_writers;
    std::vector<Task*> epoch_readers;

    /// Drops the history (vectors keep their capacity) and stamps `g`.
    void forget(std::uint64_t g) noexcept;
  };

  /// Two-level sorted interval store: leaves of at most kLeafCap entries
  /// in key order, indexed by a sorted vector of their first keys.  A
  /// position is (leaf, slot); the end position is (leaves, 0).  Entries
  /// are never erased — generations, not deletion, forget history.
  class Store {
   public:
    struct Pos {
      std::size_t leaf = 0;
      std::size_t slot = 0;
    };
    static constexpr std::size_t kLeafCap = 32;

    std::size_t size() const noexcept { return size_; }
    Pos end() const noexcept { return {leaves_.size(), 0}; }
    bool is_end(Pos p) const noexcept { return p.leaf == leaves_.size(); }
    std::uintptr_t key(Pos p) const noexcept {
      return leaves_[p.leaf].keys[p.slot];
    }
    Entry& at(Pos p) noexcept { return leaves_[p.leaf].vals[p.slot]; }
    const Entry& at(Pos p) const noexcept {
      return leaves_[p.leaf].vals[p.slot];
    }
    Pos next(Pos p) const noexcept {
      return ++p.slot < leaves_[p.leaf].keys.size() ? p : Pos{p.leaf + 1, 0};
    }
    /// The position before `p` (which must not be the first).
    Pos prev(Pos p) const noexcept;

    /// First entry whose interval could overlap [begin, …): the entry
    /// holding `begin` if any, else the first one starting after it.
    Pos find(std::uintptr_t begin) const noexcept;

    /// Inserts (key, e) immediately before `p` (key order must hold) and
    /// returns its position.
    Pos insert(Pos p, std::uintptr_t key, Entry&& e);

    template <class F>
    void for_each(F&& f) {
      for (Leaf& l : leaves_)
        for (Entry& e : l.vals) f(e);
    }

   private:
    struct Leaf {
      std::vector<std::uintptr_t> keys;
      std::vector<Entry> vals;
    };
    std::vector<Leaf> leaves_;
    std::vector<std::uintptr_t> firsts_; ///< leaves_[i].keys.front()
    std::size_t size_ = 0;
  };

  /// One shard: its slice of the address space (the stripes hashing
  /// here), the tasks it retains, and the lock serializing both.
  struct Shard {
    mutable std::mutex mu;
    Store store;
    std::uint64_t gen = 1;           ///< current history generation
    std::vector<TaskPtr> retained;   ///< one reference per registration
    std::size_t sweep_at = 0;        ///< 2 × the last sweep's survivors
    std::vector<const Task*> named;  ///< sweep scratch (capacity kept)
  };

  struct RegCtx; // per-registration state (dedup, home votes)

  /// Splits the entry at `p` so that one piece ends exactly at `at`
  /// (which must lie strictly inside the entry); returns the position of
  /// the piece beginning at `at`.
  static Store::Pos split(Store& st, Store::Pos p, std::uintptr_t at);

  /// Registers one mode over [begin, end) against one shard.  Caller
  /// holds the shard lock.
  void register_range(Shard& sh, std::uintptr_t begin, std::uintptr_t end,
                      Mode mode, RegCtx& ctx);

  /// Sweeps `sh` once its retained list outgrew max(sweep floor,
  /// 2 × entries, 2 × the last sweep's survivors).  Caller holds the lock.
  void after_register(Shard& sh);

  /// Drops finished home-less producers from the current generation's
  /// entries and releases every retained task no entry names any more.
  /// Caller holds the shard lock.
  static void sweep(Shard& sh);

  /// Shard pointers are stable (never reallocated after construction).
  std::vector<std::unique_ptr<Shard>> shards_;
  std::size_t mask_; ///< shard_count - 1 (power of two)
  std::size_t sweep_floor_;
};

} // namespace oss
