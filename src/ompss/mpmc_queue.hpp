// mpmc_queue.hpp — sharded multi-producer multi-consumer ready-task queue.
//
// The scheduler's *global* queues (spawn-ready tasks under Fifo/Locality,
// priority tasks under every policy) are multi-producer multi-consumer:
// any thread may spawn, any worker may pick.  A single mutex deque here is
// the contention hot spot the paper's task-churn workloads expose, so the
// global queue is split into shards, each a bounded lock-free MPMC ring
// (Vyukov's algorithm) with a mutex-protected overflow list for bursts that
// outrun the ring.
//
// Producers distribute over shards round-robin; consumers scan all shards
// starting from a rotating cursor.  Ordering is strict FIFO per shard
// (ticket order in the ring) and approximate FIFO across shards — the
// scheduler only needs per-shard fairness, not a total order.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <vector>

#include "ompss/task.hpp"

namespace oss {

/// Bounded lock-free MPMC ring (Vyukov).  Strict FIFO in ticket order.
/// `try_push` fails when full, `try_pop` fails when empty; both are
/// obstruction-free and never block.
template <class T>
class BoundedMpmcRing {
 public:
  /// `capacity` is rounded up to a power of two.
  explicit BoundedMpmcRing(std::size_t capacity) {
    std::size_t cap = 2;
    while (cap < capacity) cap <<= 1;
    mask_ = cap - 1;
    cells_ = std::make_unique<Cell[]>(cap);
    for (std::size_t i = 0; i < cap; ++i) {
      cells_[i].seq.store(i, std::memory_order_relaxed);
    }
  }

  BoundedMpmcRing(const BoundedMpmcRing&) = delete;
  BoundedMpmcRing& operator=(const BoundedMpmcRing&) = delete;

  bool try_push(T v) {
    std::size_t pos = enqueue_pos_.load(std::memory_order_relaxed);
    for (;;) {
      Cell& cell = cells_[pos & mask_];
      const std::size_t seq = cell.seq.load(std::memory_order_acquire);
      const auto diff = static_cast<std::intptr_t>(seq) -
                        static_cast<std::intptr_t>(pos);
      if (diff == 0) {
        if (enqueue_pos_.compare_exchange_weak(pos, pos + 1,
                                               std::memory_order_relaxed)) {
          cell.value = std::move(v);
          cell.seq.store(pos + 1, std::memory_order_release);
          return true;
        }
      } else if (diff < 0) {
        return false; // full
      } else {
        pos = enqueue_pos_.load(std::memory_order_relaxed);
      }
    }
  }

  bool try_pop(T& out) {
    std::size_t pos = dequeue_pos_.load(std::memory_order_relaxed);
    for (;;) {
      Cell& cell = cells_[pos & mask_];
      const std::size_t seq = cell.seq.load(std::memory_order_acquire);
      const auto diff = static_cast<std::intptr_t>(seq) -
                        static_cast<std::intptr_t>(pos + 1);
      if (diff == 0) {
        if (dequeue_pos_.compare_exchange_weak(pos, pos + 1,
                                               std::memory_order_relaxed)) {
          out = std::move(cell.value);
          cell.seq.store(pos + mask_ + 1, std::memory_order_release);
          return true;
        }
      } else if (diff < 0) {
        return false; // empty
      } else {
        pos = dequeue_pos_.load(std::memory_order_relaxed);
      }
    }
  }

 private:
  struct Cell {
    std::atomic<std::size_t> seq;
    T value{}; // guarded by seq's release/acquire handshake
  };

  // The read-only ring geometry first, then producer and consumer cursors
  // on separate cache lines: a push must not fetch the consumers' line
  // just to find the cells.
  std::unique_ptr<Cell[]> cells_;
  std::size_t mask_ = 0;
  alignas(64) std::atomic<std::size_t> enqueue_pos_{0};
  alignas(64) std::atomic<std::size_t> dequeue_pos_{0};
};

/// Sharded MPMC queue of ready tasks.  Each shard = lock-free ring + mutex
/// overflow deque; the ring handles the steady state, the overflow absorbs
/// spawn bursts beyond the ring capacity (push prefers the overflow once it
/// is non-empty so per-shard FIFO order survives bursts).
class ShardedTaskQueue {
 public:
  explicit ShardedTaskQueue(std::size_t shards, std::size_t ring_capacity = 1024)
      : shards_(shards == 0 ? 1 : shards) {
    for (auto& s : shards_) s = std::make_unique<Shard>(ring_capacity);
  }

  void push(TaskPtr t) {
    Shard& s = *next(push_cursor_);
    count_.fetch_add(1, std::memory_order_relaxed);
    if (s.overflow_count.load(std::memory_order_acquire) == 0) {
      Task* raw = t.get();
      raw->anchor_queue_ref(std::move(t));
      if (s.ring.try_push(raw)) return;
      t = raw->take_queue_ref(); // ring full; fall through to overflow
    }
    std::lock_guard lock(s.mu);
    s.overflow.push_back(std::move(t));
    s.overflow_count.fetch_add(1, std::memory_order_release);
  }

  /// Scans every shard once from a rotating start; null when all empty.
  /// An empty queue answers from the relaxed count alone, the same
  /// emptiness read the park protocol trusts through size(): idle workers
  /// probe empty queues all the time, and the cursor fetch_add would make
  /// every probe a write.
  TaskPtr pop() {
    if (count_.load(std::memory_order_relaxed) <= 0) return nullptr;
    const std::size_t n = shards_.size();
    const std::size_t base = n > 1 ? rotate(pop_cursor_) : 0;
    for (std::size_t i = 0; i < n; ++i) {
      Shard& s = *shards_[(base + i) % n];
      Task* raw = nullptr;
      if (s.ring.try_pop(raw)) {
        count_.fetch_sub(1, std::memory_order_relaxed);
        return raw->take_queue_ref();
      }
      if (s.overflow_count.load(std::memory_order_acquire) != 0) {
        std::lock_guard lock(s.mu);
        if (!s.overflow.empty()) {
          TaskPtr t = std::move(s.overflow.front());
          s.overflow.pop_front();
          s.overflow_count.fetch_sub(1, std::memory_order_release);
          count_.fetch_sub(1, std::memory_order_relaxed);
          return t;
        }
      }
    }
    return nullptr;
  }

  /// Racy total size (idle heuristics / tests).
  [[nodiscard]] std::size_t size() const {
    const auto c = count_.load(std::memory_order_relaxed);
    return c > 0 ? static_cast<std::size_t>(c) : 0;
  }

  [[nodiscard]] bool empty() const { return size() == 0; }

  ~ShardedTaskQueue() {
    // Release anchored references for anything still queued.
    while (TaskPtr t = pop()) t.reset();
  }

 private:
  struct alignas(64) Shard {
    explicit Shard(std::size_t ring_capacity) : ring(ring_capacity) {}
    BoundedMpmcRing<Task*> ring;
    std::mutex mu;
    std::deque<TaskPtr> overflow;
    std::atomic<std::size_t> overflow_count{0};
  };

  std::size_t rotate(std::atomic<std::size_t>& cursor) {
    return cursor.fetch_add(1, std::memory_order_relaxed) % shards_.size();
  }
  Shard* next(std::atomic<std::size_t>& cursor) {
    return shards_[rotate(cursor)].get();
  }

  // Producers write push_cursor_, consumers pop_cursor_, both count_: one
  // line each, so a spawner's push never waits on a line idle pickers
  // keep pulling away.
  std::vector<std::unique_ptr<Shard>> shards_;
  alignas(64) std::atomic<std::size_t> push_cursor_{0};
  alignas(64) std::atomic<std::size_t> pop_cursor_{0};
  alignas(64) std::atomic<std::int64_t> count_{0};
};

} // namespace oss
