// service.hpp — oss::service: a long-lived Runtime serving N concurrent
// streams (docs/service.md).
//
// The one-shot apps (h264dec_ompss & co.) construct a Runtime, decode, and
// tear it down.  A decode *service* inverts that: one Runtime stays up and
// independent streams come and go, each a pipelined task chain.  This layer
// provides the stream-management half, decode-agnostic:
//
//   * `Service` — admission control.  At most `Config::max_streams` streams
//     are open at once; `open()` past capacity (or after `close()`) rejects
//     with a reason instead of queueing, so callers can shed load.
//
//   * `Stream` — one client's private lane.  Tasks spawned through the
//     stream land in a private `oss::TaskGroup` domain (streams never
//     dependency-interfere with each other), and each stream carries a
//     `Window`: a bounded in-flight counter giving per-stream backpressure —
//     `acquire(Submit::Block)` waits for a slot, `Submit::FailFast` bounces.
//     `close()` wakes blocked submitters with failure, drains the already
//     admitted work, and frees the admission slot.
//
//   * Stream→node affinity.  Streams are assigned NUMA home nodes
//     round-robin; sessions place their per-stream state there with the
//     `NodeLocal`/`NodeArray` helpers so `.affinity_auto()` resolves every
//     stage task of a stream to the stream's node (the registered-region
//     derivation of docs/numa.md).  On single-node machines the node is -1
//     and everything degenerates to plain allocation, no affinity hint.
//
//   * Executor accounting.  A Service built on the runtime's owning thread,
//     outside any task, lends executor slot 0 for its lifetime
//     (Runtime::lend_slot0): a stand-in thread runs slot 0 while the owner
//     waits elsewhere (typically joining the threads that submit), so the
//     streams decode on all N executors.  Loans are counted; the last
//     Service destroyed on the owning thread hands the slot back.
//
// Knobs: OSS_SERVICE_MAX_STREAMS, OSS_SERVICE_WINDOW (`Config::from_env`,
// parsed with the same strict integer rules as every other OSS_* knob).
//
// Threading contract: `Service::open`/`close` and `Window` are thread-safe;
// a single `Stream` is driven by one submitter at a time (concurrent
// *streams* are the concurrency model, like one decoder thread per client).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <new>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "ompss/ompss.hpp"

namespace oss::service {

/// Backpressure policy for admitting one work unit into a stream's window.
enum class Submit {
  Block,    ///< wait until a window slot frees (or the stream closes)
  FailFast, ///< full window bounces immediately (caller sheds load)
};

/// Why `Service::open` refused a stream.
enum class Reject {
  None,     ///< not rejected
  Capacity, ///< max_streams streams already open
  Closed,   ///< the service was closed
};

[[nodiscard]] const char* reject_name(Reject r) noexcept;

/// Service-level knobs (OSS_SERVICE_*).
struct Config {
  /// Streams admitted concurrently (OSS_SERVICE_MAX_STREAMS, >= 1).
  std::size_t max_streams = 4;
  /// Per-stream in-flight work-unit bound (OSS_SERVICE_WINDOW, >= 1) — the
  /// pipeline depth of a stream: its circular renaming buffer holds this
  /// many units, and the window's backpressure is what keeps it that size.
  std::size_t window = 4;

  /// Reads the OSS_SERVICE_* knobs on top of the defaults; malformed values
  /// throw std::invalid_argument naming the knob (see parse_env_size).
  static Config from_env();
};

/// Bounded in-flight counter: the per-stream backpressure primitive.
/// `acquire` admits one unit (blocking or fail-fast while full), `release`
/// retires one (called from the unit's final task), `close` fails current
/// and future acquires so blocked submitters unwind.  All counters are
/// monotonic over the window's lifetime.
class Window {
 public:
  explicit Window(std::size_t depth) : depth_(depth == 0 ? 1 : depth) {}

  Window(const Window&) = delete;
  Window& operator=(const Window&) = delete;

  /// Admits one unit.  False = not admitted: the window is closed, or it is
  /// full under Submit::FailFast.  Under Submit::Block a full window waits;
  /// a close() during the wait also returns false.
  [[nodiscard]] bool acquire(Submit policy);

  /// Retires one admitted unit, waking one blocked acquirer.
  void release();

  /// Fails all current and future acquires.  Units already admitted are
  /// unaffected (they still release normally — close is drain, not cancel).
  void close();

  [[nodiscard]] std::size_t depth() const noexcept { return depth_; }
  [[nodiscard]] bool closed() const;
  [[nodiscard]] std::size_t in_flight() const;
  /// High-water mark of in_flight — never exceeds depth() (the bounded-
  /// memory proof a load test asserts).
  [[nodiscard]] std::size_t peak() const;
  /// Block-policy acquires that had to wait for a slot.
  [[nodiscard]] std::uint64_t blocked() const;
  /// FailFast acquires bounced on a full window.
  [[nodiscard]] std::uint64_t rejected() const;

 private:
  const std::size_t depth_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::size_t in_flight_ = 0;
  std::size_t peak_ = 0;
  std::uint64_t blocked_ = 0;
  std::uint64_t rejected_ = 0;
  bool closed_ = false;
};

class Service;

/// One admitted stream: a private task domain plus its backpressure window.
/// Obtained from `Service::open`; `close()` (or destruction) drains it and
/// frees the admission slot.
class Stream {
 public:
  ~Stream();

  Stream(const Stream&) = delete;
  Stream& operator=(const Stream&) = delete;

  /// Starts a task declaration in this stream's private dependency domain.
  /// Only valid while the stream is open.
  [[nodiscard]] oss::TaskBuilder task(std::string label);

  /// Waits for every task spawned through the stream so far (rethrows the
  /// first task exception).  The stream stays open.
  void drain();

  /// Closes the stream: fails blocked/future window acquires, drains the
  /// admitted work, and frees the admission slot.  Idempotent.
  void close();

  [[nodiscard]] bool open() const;
  [[nodiscard]] Window& window() noexcept { return window_; }
  [[nodiscard]] oss::Runtime& runtime() const noexcept { return *rt_; }
  /// Home NUMA node assigned round-robin at open (-1 on single-node boxes).
  [[nodiscard]] int node() const noexcept { return node_; }
  [[nodiscard]] std::uint64_t id() const noexcept { return id_; }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  /// Stream tasks not yet finished.
  [[nodiscard]] std::size_t pending() const;

 private:
  friend class Service;

  Stream(Service& svc, oss::Runtime& rt, std::string name, std::uint64_t id,
         int node, std::size_t window_depth);

  Service* svc_;
  oss::Runtime* rt_;
  std::string name_;
  std::uint64_t id_;
  int node_;
  Window window_;
  /// Private dependency domain; reset on close so a Stream handle that
  /// outlives the drain never touches runtime state again.
  std::optional<oss::TaskGroup> group_;
  mutable std::mutex mu_; ///< guards group_ teardown / open flag
  bool open_ = true;
};

using StreamPtr = std::shared_ptr<Stream>;

/// Admission control over one shared Runtime.
class Service {
 public:
  struct Stats {
    std::uint64_t opened = 0;            ///< streams ever admitted
    std::uint64_t closed = 0;            ///< streams closed (drained)
    std::uint64_t rejected_capacity = 0; ///< opens bounced at max_streams
    std::uint64_t rejected_closed = 0;   ///< opens after close()
    std::size_t active = 0;              ///< currently open
  };

  /// On the runtime's owning thread outside any task, lends executor slot
  /// 0 to a stand-in until destruction (see the header comment).
  Service(oss::Runtime& rt, Config cfg = Config::from_env());

  /// Closes every stream still open (drains them), then the service, then
  /// returns the slot-0 loan if construction took one.
  ~Service();

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// Admits a new stream, or returns null with `*why` set (Capacity when
  /// max_streams are open, Closed after close()).  Thread-safe.
  [[nodiscard]] StreamPtr open(std::string name, Reject* why = nullptr);

  /// Rejects future opens, then closes (drains) every open stream.
  void close();

  [[nodiscard]] Stats stats() const;
  [[nodiscard]] const Config& config() const noexcept { return cfg_; }
  [[nodiscard]] oss::Runtime& runtime() const noexcept { return *rt_; }

 private:
  friend class Stream;
  void on_stream_closed();

  oss::Runtime* rt_;
  Config cfg_;
  std::size_t num_nodes_;
  bool lent_slot0_ = false; ///< construction lent executor slot 0

  mutable std::mutex mu_;
  bool closed_ = false;
  std::size_t active_ = 0;
  std::uint64_t next_id_ = 0;
  std::uint64_t opened_ = 0;
  std::uint64_t closed_streams_ = 0;
  std::uint64_t rejected_capacity_ = 0;
  std::uint64_t rejected_closed_ = 0;
  std::vector<std::weak_ptr<Stream>> streams_; ///< for close-all; pruned lazily
};

// --- node-local stream state -----------------------------------------------
//
// `.affinity_auto()` derives a task's home node from its largest *registered*
// declared region (numa_alloc.hpp).  These helpers place a stream's state in
// registered node-bound pages so every stage task that declares accesses on
// that state inherits the stream's node — no per-task affinity bookkeeping.
// With node < 0 they fall back to plain (unregistered) page storage, so the
// same session code runs on single-node machines with zero behavior change.

/// One T constructed in node-bound registered storage.
template <class T>
class NodeLocal {
 public:
  template <class... A>
  explicit NodeLocal(int node, A&&... args)
      : bytes_(sizeof(T)),
        p_(node >= 0 ? oss::numa_alloc_onnode(sizeof(T), node)
                     : oss::numa_raw_alloc(sizeof(T), -1)),
        node_(node) {
    try {
      new (p_) T(std::forward<A>(args)...);
    } catch (...) {
      free_storage();
      throw;
    }
  }

  NodeLocal(const NodeLocal&) = delete;
  NodeLocal& operator=(const NodeLocal&) = delete;

  ~NodeLocal() {
    get()->~T();
    free_storage();
  }

  [[nodiscard]] T* get() const noexcept { return static_cast<T*>(p_); }
  [[nodiscard]] T& operator*() const noexcept { return *get(); }
  [[nodiscard]] T* operator->() const noexcept { return get(); }
  [[nodiscard]] int node() const noexcept { return node_; }

 private:
  void free_storage() noexcept {
    if (node_ >= 0) {
      oss::numa_free(p_, bytes_);
    } else {
      oss::numa_raw_free(p_, bytes_);
    }
  }

  std::size_t bytes_;
  void* p_;
  int node_;
};

/// A fixed-size array of default-constructed T in node-bound registered
/// storage (the stream's circular slot buffer).
template <class T>
class NodeArray {
 public:
  NodeArray(std::size_t n, int node)
      : n_(n),
        bytes_(n * sizeof(T)),
        p_(node >= 0 ? oss::numa_alloc_onnode(bytes_, node)
                     : oss::numa_raw_alloc(bytes_, -1)),
        node_(node) {
    std::size_t built = 0;
    try {
      for (; built < n_; ++built) new (data() + built) T();
    } catch (...) {
      while (built > 0) data()[--built].~T();
      free_storage();
      throw;
    }
  }

  NodeArray(const NodeArray&) = delete;
  NodeArray& operator=(const NodeArray&) = delete;

  ~NodeArray() {
    for (std::size_t i = n_; i > 0; --i) data()[i - 1].~T();
    free_storage();
  }

  [[nodiscard]] T* data() const noexcept { return static_cast<T*>(p_); }
  [[nodiscard]] T& operator[](std::size_t i) const noexcept {
    return data()[i];
  }
  [[nodiscard]] std::size_t size() const noexcept { return n_; }
  [[nodiscard]] int node() const noexcept { return node_; }

 private:
  void free_storage() noexcept {
    if (node_ >= 0) {
      oss::numa_free(p_, bytes_);
    } else {
      oss::numa_raw_free(p_, bytes_);
    }
  }

  std::size_t n_;
  std::size_t bytes_;
  void* p_;
  int node_;
};

} // namespace oss::service
