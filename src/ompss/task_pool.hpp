#pragma once
// task_pool.hpp — allocation recycling for the steady-state spawn path.
//
// Two cooperating pieces:
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
//   * enabled_by_default() — the OSS_POOL=on|off escape hatch, read
//     once.  Off restores the pre-pool behavior (plain `new`/`delete`
//     per task) bit-exactly.
//
// Memory ordering: recycle() publishes the cleared task by pushing it
// under the thread-local list (same thread) or the global mutex; a
// later acquire() on another thread re-acquires it through that same
// mutex, so the retire happens-before the reuse.

#include <cstddef>
#include <cstdint>

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

}  // namespace pool
}  // namespace oss
