// task_pool.cpp — the process-wide Task recycler.
//
// Structure: a lock-free-by-locality thread cache (plain thread_local
// singly-linked list, touched only by its owner) in front of one
// mutex-protected global list.  Crossings are batched (kFlushBatch) so
// a producer-consumer imbalance between workers costs one lock per 64
// tasks, not one per task.
//
// The pool is process-wide, not per-Runtime: TaskHandles may outlive
// the Runtime that spawned them, and their final release must still
// have somewhere to put the task.  The global list is an intentionally
// leaked singleton so thread_local cache destructors (which flush into
// it at thread exit, in unspecified order vs static destruction) can
// never touch a destroyed object; the singleton stays reachable, so
// leak checkers do not flag it.

#include "ompss/task_pool.hpp"

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <mutex>

#include "ompss/task.hpp"

namespace oss::pool {

namespace {

std::atomic<std::uint64_t> g_overflow{0};

struct GlobalPool {
  std::mutex mu;
  Task* head = nullptr;
  std::size_t n = 0;
};

GlobalPool& global_pool() {
  static GlobalPool* g = new GlobalPool(); // leaked on purpose (see header)
  return *g;
}

// Splices `chain` (length `count`) into the global list and sheds tasks
// beyond kGlobalCap.  Deletion happens outside the lock.
void push_global(Task* chain, Task* chain_tail, std::size_t count) {
  Task* shed = nullptr;
  {
    GlobalPool& g = global_pool();
    std::lock_guard lock(g.mu);
    chain_tail->pool_next = g.head;
    g.head = chain;
    g.n += count;
    while (g.n > kGlobalCap) {
      Task* t = g.head;
      g.head = t->pool_next;
      --g.n;
      t->pool_next = shed;
      shed = t;
    }
  }
  while (shed) {
    Task* next = shed->pool_next;
    delete shed;
    shed = next;
  }
}

struct ThreadCache {
  Task* head = nullptr;
  std::size_t n = 0;

  // Detaches up to `want` tasks as a chain (returns head; sets tail).
  Task* detach(std::size_t want, Task*& tail, std::size_t& got) {
    Task* chain = nullptr;
    tail = nullptr;
    got = 0;
    while (got < want && head) {
      Task* t = head;
      head = t->pool_next;
      --n;
      t->pool_next = chain;
      if (!chain) tail = t;
      chain = t;
      ++got;
    }
    return chain;
  }

  ~ThreadCache() {
    // Thread exit: hand everything back so a short-lived worker cannot
    // strand its cache.
    Task* tail = nullptr;
    std::size_t got = 0;
    if (Task* chain = detach(n, tail, got)) push_global(chain, tail, got);
  }
};

thread_local ThreadCache t_cache;

} // namespace

AcquireResult acquire() {
  ThreadCache& c = t_cache;
  if (c.head) {
    Task* t = c.head;
    c.head = t->pool_next;
    --c.n;
    return {t, true};
  }
  // Refill from the global list: take one for the caller plus a batch
  // for the cache under a single lock acquisition.
  {
    GlobalPool& g = global_pool();
    std::lock_guard lock(g.mu);
    if (g.head) {
      Task* t = g.head;
      g.head = t->pool_next;
      --g.n;
      while (g.head && c.n < kFlushBatch) {
        Task* u = g.head;
        g.head = u->pool_next;
        --g.n;
        u->pool_next = c.head;
        c.head = u;
        ++c.n;
      }
      return {t, true};
    }
  }
  // True miss: allocate a fresh batch, return one, cache the rest.
  Task* first = new Task();
  first->mark_pooled();
  for (std::size_t i = 1; i < kSlabTasks; ++i) {
    Task* t = new Task();
    t->mark_pooled();
    t->pool_next = c.head;
    c.head = t;
    ++c.n;
  }
  return {first, false};
}

void recycle(Task* t) noexcept {
  t->recycle_clear();
  ThreadCache& c = t_cache;
  t->pool_next = c.head;
  c.head = t;
  ++c.n;
  if (c.n > kThreadCacheCap) {
    Task* tail = nullptr;
    std::size_t got = 0;
    Task* chain = c.detach(kFlushBatch, tail, got);
    g_overflow.fetch_add(got, std::memory_order_relaxed);
    push_global(chain, tail, got);
  }
}

std::uint64_t overflow_total() noexcept {
  return g_overflow.load(std::memory_order_relaxed);
}

std::size_t thread_cache_size() noexcept { return t_cache.n; }

std::size_t global_pool_size() noexcept {
  GlobalPool& g = global_pool();
  std::lock_guard lock(g.mu);
  return g.n;
}

bool enabled_by_default() noexcept {
  static const bool enabled = [] {
    const char* v = std::getenv("OSS_POOL");
    if (!v) return true;
    return !(std::strcmp(v, "off") == 0 || std::strcmp(v, "0") == 0 ||
             std::strcmp(v, "false") == 0 || std::strcmp(v, "no") == 0);
  }();
  return enabled;
}

} // namespace oss::pool
