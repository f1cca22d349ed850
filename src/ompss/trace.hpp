// trace.hpp — lock-free execution tracing (oss::trace v2).
//
// The original OmpSs toolchain shipped with Extrae/Paraver tracing; this is
// our equivalent.  Every runtime thread (workers and foreign spawners) owns
// a single-producer/single-consumer ring buffer (`pt::SpscRing`) into which
// the runtime, the scheduler, and the dependency layer emit fixed-size
// 32-byte binary events: the full task lifecycle (spawn, deps-resolved,
// run-span) plus steals, park/unpark, overflow placements, and dependency
// edges.  Emission is wait-free — one raw TSC read and one ring push; when
// a ring is full between drains the event is dropped and counted
// (`trace_dropped`), the hot path never blocks and never allocates.
//
// A drainer — invoked at quiescent points (barrier, shutdown, export) and
// by the optional OSS_STATS_EVERY_MS collector thread — merges the rings
// into a time-ordered store and exports it as Chrome trace-event JSON
// (worker-per-row, flow arrows spawn→run) or a Paraver .prv/.row/.pcf
// trio.  `OSS_TRACE=off|exec|full` selects the mode; `exec` reproduces the
// classic one-event-per-executed-task view so `analyze_trace` and the
// TraceRecorder accessor keep working over the new event stream.
//
// See docs/observability.md for the event schema, knobs, and workflow.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif

#include "ompss/config.hpp"
#include "threading/spsc_ring.hpp"

namespace oss {

// ---------------------------------------------------------------------------
// Legacy recorder — the stable analysis surface.
//
// TraceRecorder used to *be* the tracing implementation (mutex + vector on
// the execution path).  It survives as the materialized run-span view the
// TraceSystem drains into: `analyze_trace`, the examples, and the tests
// consume this; nothing in the runtime hot path touches it anymore.
// ---------------------------------------------------------------------------
class TraceRecorder {
 public:
  using Clock = std::chrono::steady_clock;

  /// One executed task.
  struct Event {
    int worker;
    std::uint64_t task_id;
    std::string label;
    std::uint64_t start_us;
    std::uint64_t end_us;
  };

  TraceRecorder() : origin_(Clock::now()) {}

  /// Timestamp in microseconds since the recorder was created.
  [[nodiscard]] std::uint64_t now_us() const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() - origin_)
            .count());
  }

  void record(int worker, std::uint64_t task_id, const std::string& label,
              std::uint64_t start_us, std::uint64_t end_us);

  /// Chrome trace-event JSON ("traceEvents" array format).  Thread-safe.
  [[nodiscard]] std::string to_json() const;

  [[nodiscard]] std::size_t event_count() const;

  /// Snapshot of all recorded events.  Thread-safe.
  [[nodiscard]] std::vector<Event> events() const;

 private:
  Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Event> events_;
};

// ---------------------------------------------------------------------------
// The binary event stream.
// ---------------------------------------------------------------------------

/// What a TraceEvent records.  Timestamped kinds carry raw clock ticks in
/// `ts` (converted to nanoseconds at drain); structural kinds (Edge, Place)
/// carry ts == 0 and cost only the ring push.
enum class TraceEventKind : std::uint8_t {
  Spawn = 0,    ///< task created; arg bit 0 = ready at spawn (no open deps)
  Ready,        ///< last dependency resolved (emitted by the finishing thread)
  RunSpan,      ///< task executed: begin ticks in arg, end ticks in ts
  Steal,        ///< emitting worker stole `task` from worker `arg`
  Park,         ///< emitting worker parked
  Unpark,       ///< emitting worker woke up
  Overflow,     ///< pressure feedback widened `task` to the global tier
  Place,        ///< scheduler placed `task`; arg = PlaceTier
  Edge,         ///< dependency edge: producer `arg` → consumer `task`;
                ///< label holds the DepKind ordinal
  DepContended, ///< registration of `task` contended on a dep shard
};

/// Which queue tier a Place event landed in (TraceEventKind::Place arg).
enum class PlaceTier : std::uint8_t {
  Priority = 0, ///< global high-priority queue
  Local,        ///< the placing worker's own deque
  Home,         ///< the task's home-node queue
  Global,       ///< the global overflow FIFO
};

const char* to_string(PlaceTier t) noexcept;

/// Fixed-size binary trace record; 32 bytes, trivially copyable.
struct TraceEvent {
  std::uint64_t ts;    ///< raw clock ticks (0 for structural events)
  std::uint64_t task;  ///< task id (0 = none)
  std::uint64_t arg;   ///< kind-specific payload (see TraceEventKind)
  std::uint32_t label; ///< interned label hash (0 = unlabeled)
  TraceEventKind kind;
  std::uint8_t pad[3] = {0, 0, 0};
};
static_assert(sizeof(TraceEvent) == 32,
              "TraceEvent must stay half a cache line; rings are sized in events");

// ---------------------------------------------------------------------------
// TraceSystem — per-thread rings, drainer, exporters.
// ---------------------------------------------------------------------------
class TraceSystem {
 public:
  /// Foreign (non-worker) threads get row ids starting here.
  static constexpr int kForeignBase = 1000;

  explicit TraceSystem(TraceMode mode, std::size_t ring_capacity = 32768);
  ~TraceSystem();

  TraceSystem(const TraceSystem&) = delete;
  TraceSystem& operator=(const TraceSystem&) = delete;

  [[nodiscard]] TraceMode mode() const noexcept { return mode_; }
  [[nodiscard]] bool full() const noexcept { return mode_ == TraceMode::Full; }

  /// Raw monotonic ticks — the cheapest timestamp the platform has (TSC on
  /// x86).  Converted to nanoseconds at drain via a steady_clock
  /// calibration pair, so the emission path never pays for the conversion.
  static std::uint64_t clock() noexcept {
#if defined(__x86_64__) || defined(__i386__)
    return __rdtsc();
#elif defined(__aarch64__)
    std::uint64_t v;
    asm volatile("mrs %0, cntvct_el0" : "=r"(v));
    return v;
#else
    return static_cast<std::uint64_t>(
        std::chrono::steady_clock::now().time_since_epoch().count());
#endif
  }

  /// Declares the calling thread to be worker `wid` — its ring becomes the
  /// worker's timeline row — or, for `wid` < 0, a new "spawner k" row.
  /// Unbound threads that emit (foreign spawners) self-register as
  /// "spawner k" rows (tid >= kForeignBase).  Rebinding a thread drains
  /// the rings first, so earlier events keep their row.
  void bind_worker(int wid);

  // --- hot emitters -------------------------------------------------------
  // All of them: a mode check, one clock() where the event is timestamped,
  // one SPSC push.  Full-only kinds compile down to a load+branch in exec
  // mode.

  void emit_spawn(std::uint64_t task, std::uint32_t label, bool ready) {
    if (mode_ != TraceMode::Full) return;
    push({clock(), task, ready ? 1u : 0u, label, TraceEventKind::Spawn, {}});
  }
  void emit_ready(std::uint64_t task) {
    if (mode_ != TraceMode::Full) return;
    push({clock(), task, 0, 0, TraceEventKind::Ready, {}});
  }
  /// The one event exec mode records: begin ticks captured by the caller
  /// around the task body, end ticks stamped here.
  void emit_run(std::uint64_t task, std::uint32_t label,
                std::uint64_t begin_ticks) {
    push({clock(), task, begin_ticks, label, TraceEventKind::RunSpan, {}});
  }
  void emit_steal(std::uint64_t task, int victim) {
    if (mode_ != TraceMode::Full) return;
    push({clock(), task, static_cast<std::uint64_t>(victim), 0,
          TraceEventKind::Steal, {}});
  }
  void emit_park() {
    if (mode_ != TraceMode::Full) return;
    push({clock(), 0, 0, 0, TraceEventKind::Park, {}});
  }
  void emit_unpark() {
    if (mode_ != TraceMode::Full) return;
    push({clock(), 0, 0, 0, TraceEventKind::Unpark, {}});
  }
  void emit_overflow(std::uint64_t task) {
    if (mode_ != TraceMode::Full) return;
    push({clock(), task, 0, 0, TraceEventKind::Overflow, {}});
  }
  void emit_place(std::uint64_t task, PlaceTier tier) {
    if (mode_ != TraceMode::Full) return;
    push({0, task, static_cast<std::uint64_t>(tier), 0,
          TraceEventKind::Place, {}});
  }
  void emit_edge(std::uint64_t producer, std::uint64_t consumer,
                 std::uint8_t dep_kind) {
    if (mode_ != TraceMode::Full) return;
    push({0, consumer, producer, dep_kind, TraceEventKind::Edge, {}});
  }
  void emit_dep_contended(std::uint64_t task) {
    if (mode_ != TraceMode::Full) return;
    push({clock(), task, 0, 0, TraceEventKind::DepContended, {}});
  }

  /// Interns a task label, returning its 32-bit hash (0 for the empty
  /// label).  Called once per spawn; a small thread-local cache makes the
  /// repeated-label case (the normal one) lock-free.
  std::uint32_t intern(const std::string& label);

  /// Total intern() invocations (including empty-label and cache-hit
  /// calls).  Replayed tasks reuse the hash interned at capture, so a
  /// warmed replay loop leaves this counter flat — the zero-interning
  /// proof in test_replay.cpp.
  [[nodiscard]] std::uint64_t intern_calls() const noexcept {
    return intern_calls_.load(std::memory_order_relaxed);
  }

  // --- cold side ----------------------------------------------------------

  /// A drained event: ring row id plus the raw record with tick fields
  /// already converted to nanoseconds since the system was created
  /// (structural events keep ts == 0).
  struct Merged {
    int tid;
    TraceEvent ev;
  };

  /// Drains every ring into the merged store.  Safe to call concurrently
  /// with emission (SPSC: producers keep pushing); drainers serialize on an
  /// internal mutex.
  void drain();

  /// Drains only rings at least half full — the barrier-time hook: keeps
  /// long runs from dropping events without putting a full drain inside
  /// measured loops.
  void drain_if_pressed();

  /// Events lost so far: ring overflows plus merged-store clamping.
  [[nodiscard]] std::uint64_t dropped() const noexcept;

  /// Drained events so far (drains first).
  std::size_t event_count();

  /// Snapshot of the merged, time-ordered event store (drains first).
  std::vector<Merged> merged_events();

  /// Resolves an interned label hash ("" if unknown).
  [[nodiscard]] std::string label_name(std::uint32_t hash) const;

  /// Chrome trace-event JSON.  Exec mode reproduces the classic
  /// TraceRecorder format byte for byte (one "X" event per executed task);
  /// full mode adds worker-name metadata, spawn→run flow arrows, and
  /// instant events for steals/parks/overflows.  Drains first.
  std::string to_chrome_json();

  /// Writes Paraver `<base>.prv` / `<base>.row` / `<base>.pcf` (base is the
  /// path with any ".prv" suffix stripped).  Run spans become state
  /// records, everything else event records.  Returns false on I/O error.
  bool write_paraver(const std::string& path);

  /// Writes Chrome JSON to `path`.  Returns false on I/O error.
  bool write_chrome_json(const std::string& path);

  /// The legacy run-span view, rebuilt from the current event store: one
  /// TraceRecorder event per RunSpan.  Reference stays valid until the next
  /// call.  Drains first.
  TraceRecorder& legacy_recorder();

 private:
  struct Ring {
    explicit Ring(std::size_t cap) : buf(cap) {}
    pt::SpscRing<TraceEvent> buf;
    int tid = -1;
    std::thread::id owner;
    std::atomic<std::uint64_t> dropped{0};
  };

  struct TlsSlot {
    const TraceSystem* sys = nullptr;
    std::uint64_t epoch = 0;
    Ring* ring = nullptr;
  };

  Ring* ring() {
    TlsSlot& slot = tls_slot_;
    if (slot.sys == this && slot.epoch == epoch_) return slot.ring;
    return ring_slow();
  }
  Ring* ring_slow();

  void push(const TraceEvent& ev) {
    Ring* r = ring();
    if (!r->buf.try_push(ev)) r->dropped.fetch_add(1, std::memory_order_relaxed);
  }

  void drain_locked();
  double ns_per_tick_locked();

  static thread_local TlsSlot tls_slot_;

  const TraceMode mode_;
  const std::size_t ring_capacity_;
  const std::uint64_t epoch_; ///< globally unique per instance; guards TLS
                              ///< slots against address reuse

  // Calibration origin: (ticks, wall) sampled at construction.
  std::uint64_t t0_ticks_;
  std::chrono::steady_clock::time_point t0_wall_;

  std::atomic<std::uint64_t> intern_calls_{0};

  mutable std::mutex mu_; ///< guards ring registration, labels_, the store,
                          ///< and the consumer side of every ring
  std::vector<std::unique_ptr<Ring>> rings_;
  int foreign_rows_ = 0;
  std::unordered_map<std::uint32_t, std::string> labels_;

  std::vector<Merged> store_; ///< drained events, ts in ns since t0
  std::uint64_t store_clamped_ = 0;
  std::unique_ptr<TraceRecorder> legacy_;

  /// Merged-store ceiling: long benchmark loops would otherwise grow the
  /// store without bound.  Past it, drained events are counted as dropped.
  static constexpr std::size_t kMaxStoredEvents = std::size_t{1} << 21;
};

} // namespace oss
