#pragma once
// task_pool.hpp — allocation recycling for the steady-state spawn path.
//
// Three cooperating pieces:
//
//   * oss::pool::acquire()/recycle() — a process-wide Task recycler.
//     Retiring workers push finished tasks onto a per-thread freelist
//     (no lock); spawners pop from their own freelist first, then
//     refill in batches from a mutex-protected global list, and only
//     `new` a fresh batch on a true miss.  The thread cache is capped
//     (kThreadCacheCap) so a retire-heavy worker spills batches to the
//     global list instead of hoarding, and the global list is capped
//     (kGlobalCap) so a burst cannot pin memory forever — beyond the
//     cap, tasks are actually deleted.  This is why tasks are
//     individually `new`ed (in batches of kSlabTasks) rather than
//     carved from permanent slabs: a hard cap needs to be able to give
//     memory back.
//
//   * oss::pool::NodePool + PoolAllocator — a fixed-size freelist used
//     as the std::map allocator for the dependency domain's interval
//     maps.  One NodePool per shard, protected by the shard's existing
//     mutex (the pool itself takes no locks).  Nodes are carved from
//     64-node chunks and recycled forever; interval erase/insert churn
//     in register_range stops hitting the global allocator once a
//     shard is warm.
//
//   * enabled_by_default() — the OSS_POOL=on|off escape hatch, read
//     once.  Off restores the pre-pool behavior (plain `new`/`delete`
//     per task, default map allocator) bit-exactly.
//
// Memory ordering: recycle() publishes the cleared task by pushing it
// under the thread-local list (same thread) or the global mutex; a
// later acquire() on another thread re-acquires it through that same
// mutex, so the retire happens-before the reuse.

#include <cstddef>
#include <cstdint>
#include <new>
#include <vector>

namespace oss {

class Task;

namespace pool {

// Tuning knobs.  Cache cap bounds per-thread hoarding; flush batch is
// what moves per overflow/refill; slab is the miss batch size; global
// cap bounds total idle tasks process-wide.
inline constexpr std::size_t kThreadCacheCap = 128;
inline constexpr std::size_t kFlushBatch = 64;
inline constexpr std::size_t kSlabTasks = 32;
inline constexpr std::size_t kGlobalCap = 4096;

struct AcquireResult {
  Task* task;     // dormant task, caller must prepare() it
  bool recycled;  // false = freshly allocated (a pool miss)
};

// Pop a dormant task from the calling thread's cache (or the global
// list, or allocate a fresh batch).  The returned task is pooled: its
// final release() routes back through recycle().
AcquireResult acquire();

// Return a dead task (refcount 0) to the calling thread's cache.
// Called from Task::release() on the retiring thread.
void recycle(Task* t) noexcept;

// Process-wide overflow counter (monotonic; Runtime::stats() computes
// deltas).  Hits and misses are counted per runtime (Stats) only: a
// process-wide counter bumped on every spawn would put one more shared
// line on the spawn path.
std::uint64_t overflow_total() noexcept;

// Test accessors.
std::size_t thread_cache_size() noexcept;
std::size_t global_pool_size() noexcept;

// OSS_POOL env knob, parsed once (on|1|true|yes vs off|0|false|no;
// default on).  RuntimeConfig's `pool` field defaults to this.
bool enabled_by_default() noexcept;

// ---------------------------------------------------------------------------
// NodePool: fixed-size-node freelist, externally synchronized.
//
// The node size latches on the first allocation (the map's tree-node
// size); anything larger falls through to the global allocator so a
// rebound allocator for an oversized type stays correct.
class NodePool {
 public:
  NodePool() = default;
  NodePool(const NodePool&) = delete;
  NodePool& operator=(const NodePool&) = delete;
  ~NodePool() {
    for (void* c : chunks_) ::operator delete(c);
  }

  void* allocate(std::size_t bytes) {
    if (node_size_ == 0)
      node_size_ = bytes < sizeof(FreeNode) ? sizeof(FreeNode) : bytes;
    if (bytes > node_size_) return ::operator new(bytes);
    if (!free_) refill();
    FreeNode* n = free_;
    free_ = n->next;
    return n;
  }

  void deallocate(void* p, std::size_t bytes) noexcept {
    if (bytes > node_size_) {
      ::operator delete(p);
      return;
    }
    auto* n = static_cast<FreeNode*>(p);
    n->next = free_;
    free_ = n;
  }

  std::size_t chunk_count() const noexcept { return chunks_.size(); }

 private:
  struct FreeNode {
    FreeNode* next;
  };
  static constexpr std::size_t kChunkNodes = 64;

  void refill() {
    char* chunk = static_cast<char*>(::operator new(node_size_ * kChunkNodes));
    chunks_.push_back(chunk);
    for (std::size_t i = kChunkNodes; i-- > 0;) {
      auto* n = reinterpret_cast<FreeNode*>(chunk + i * node_size_);
      n->next = free_;
      free_ = n;
    }
  }

  std::size_t node_size_ = 0;
  FreeNode* free_ = nullptr;
  std::vector<void*> chunks_;
};

// Standard-allocator shim over a NodePool.  A null pool means "behave
// exactly like std::allocator" — that is the OSS_POOL=off path.
template <class T>
struct PoolAllocator {
  using value_type = T;

  NodePool* pool = nullptr;

  PoolAllocator() noexcept = default;
  explicit PoolAllocator(NodePool* p) noexcept : pool(p) {}
  template <class U>
  PoolAllocator(const PoolAllocator<U>& o) noexcept : pool(o.pool) {}

  T* allocate(std::size_t n) {
    if (n == 1 && pool) return static_cast<T*>(pool->allocate(sizeof(T)));
    return static_cast<T*>(::operator new(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    if (n == 1 && pool) {
      pool->deallocate(p, sizeof(T));
      return;
    }
    ::operator delete(p);
  }

  template <class U>
  bool operator==(const PoolAllocator<U>& o) const noexcept {
    return pool == o.pool;
  }
  template <class U>
  bool operator!=(const PoolAllocator<U>& o) const noexcept {
    return pool != o.pool;
  }
};

}  // namespace pool
}  // namespace oss
