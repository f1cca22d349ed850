// config.hpp — runtime configuration.
//
// OmpSs programs are configured through environment variables (the paper
// notes that "OmpSs programs use a static number of cores controlled by an
// environmental variable").  We mirror that: `RuntimeConfig::from_env()`
// reads the `OSS_*` variables below; every knob can also be set
// programmatically before constructing a `Runtime`.
//
//   OSS_NUM_THREADS   executor slots N: slot 0 (the owning thread, or its
//                     stand-in while an oss::service::Service built there
//                     is alive) + N-1 pool workers.  Default: hardware
//                     concurrency.
//   OSS_SCHEDULER     "locality" (default) | "fifo" | "wsteal".
//   OSS_BARRIER       "poll" (default) | "block" — how taskwait/barrier wait.
//   OSS_IDLE          "park" (default) | "spin" | "yield" | "sleep" — idle
//                     workers.
//   OSS_SPIN_ROUNDS   busy-poll iterations before an idle worker
//                     parks/yields/sleeps.
//   OSS_STEAL_TRIES   *ceiling* of victim sweeps per steal attempt
//                     (default 2); the scheduler adapts the actual sweep
//                     count to the observed failed-steal rate.
//   OSS_NUMA          "bind" (default) | "interleave" | "off" — NUMA
//                     placement mode (see docs/numa.md).
//   OSS_TOPOLOGY      "flat" | "numa" | fake spec ("2x4", "0:0-3;1:4-7") —
//                     override hardware-topology discovery.
//   OSS_PIN           "node" (or "1") to pin each worker thread to its home
//                     node's CPU set, "compact" / "scatter" for per-worker
//                     single-CPU layouts (pthread_setaffinity_np), making
//                     first-touch placement reliable.  Degrades to unpinned
//                     — one warning line, never an abort — when the process
//                     cpu mask does not cover the topology
//                     (cpuset-restricted containers).
//   OSS_PRESSURE      home-queue depth at which `.affinity_auto()` /
//                     inherited placements widen to the global tier while
//                     another node has parked workers (default 8; 0
//                     disables the feedback).
//   OSS_DEP_SHARDS    power-of-two number of dependency-domain shards
//                     (default 8).  Concurrent spawners registering
//                     disjoint regions lock different shards; 1 restores
//                     the single-lock domain of earlier releases
//                     (bit-exact edge sets, see docs/dependencies.md).
//   OSS_RECORD_GRAPH  "1" to record the task graph for DOT export.
//   OSS_TRACE         "off" | "exec" | "full" — execution tracing into the
//                     per-worker ring buffers (docs/observability.md).
//                     "exec" records one event per executed task (the
//                     classic TraceRecorder view), "full" the whole task
//                     lifecycle (spawn/ready/run plus steal, park/unpark,
//                     overflow, dependency edges).  Boolean spellings keep
//                     working: "1"/"true" = exec, "0"/"false" = off.
//   OSS_TRACE_OUT     path: export the trace when the runtime shuts down
//                     (".prv" suffix = Paraver, anything else = Chrome
//                     trace-event JSON).
//   OSS_TRACE_BUF     per-thread trace ring capacity in events (rounded up
//                     to a power of two; default 32768).  When a ring fills
//                     between drains, events drop and `trace_dropped`
//                     counts them — emission never blocks.
//   OSS_STATS_EVERY_MS period of the optional collector thread: every N ms
//                     it drains the trace rings and prints a StatsSnapshot
//                     delta line to stderr.  0 (default) = no collector.
//   OSS_PROF          "1" to collect per-label task profiles and the
//                     work/span critical path; a sorted profile table is
//                     printed at shutdown (docs/observability.md).
//   OSS_PROF_EVERY_MS period of periodic profile delta lines on the
//                     collector thread.  0 (default) = footer only.
//   OSS_WATCHDOG      health-watchdog interval in ms: the collector thread
//                     checks for no-progress intervals (tasks in flight,
//                     zero retirements) and dumps queue depths, parked
//                     workers and the oldest in-flight tasks to stderr;
//                     the same dump answers SIGUSR1.  0 (default) = off.
//   OSS_POOL          "on" (default) | "off" — allocation recycling
//                     (docs/memory.md): intrusive task pooling, pooled
//                     dependency-map nodes.  "off" restores per-spawn
//                     `new`/`delete` with bit-exact dependency semantics —
//                     the escape hatch and the A/B baseline.
//
// Unknown policy names fail fast with a message listing the valid options.
#pragma once

#include <cstddef>
#include <string>

#include "ompss/task_pool.hpp" // pool::enabled_by_default (OSS_POOL)

namespace oss {

class Topology;

/// Scheduling policy for ready tasks (Section 4 of the paper credits the
/// locality-aware policy for the `ray-rot` result).
enum class SchedulerPolicy {
  Fifo,     ///< single global FIFO queue; no locality, no stealing
  Locality, ///< tasks unblocked by a completion run next on the same worker
  WorkStealing, ///< per-worker LIFO deques with randomized stealing
};

/// How waiting threads (taskwait / barriers) behave while work is pending.
enum class WaitPolicy {
  Polling,  ///< spin and execute ready tasks (paper's default; fast, cores
            ///< stay fully loaded)
  Blocking, ///< sleep on a condition variable (paper's Pthreads-style barrier)
};

/// How idle *workers* behave between tasks.  The paper (§4) observes that
/// because the OmpSs runtime polls, "all used cores are always fully loaded
/// even if there is insufficient work", hurting system responsiveness and
/// power efficiency — these policies span that trade-off space:
enum class IdlePolicy {
  Spin,  ///< busy-poll continuously (the paper's observed behaviour)
  Yield, ///< poll but yield the CPU between rounds (oversubscribe-safe)
  Sleep, ///< back off to short sleeps when idle (power-friendly, adds latency)
  Park,  ///< park on an eventcount after a short spin; enqueues wake exactly
         ///< one parked worker, stop wakes all (default: precise wakeup, no
         ///< idle CPU burn, no sleep-loop latency)
};

/// NUMA placement mode (docs/numa.md).  On single-node machines every mode
/// behaves identically (placement is a no-op).
enum class NumaMode {
  Bind,       ///< bind per-worker scheduler state to the owning worker's
              ///< node and honor task affinity hints (default)
  Interleave, ///< honor affinity hints but leave runtime state interleaved
              ///< (first-touch); app helpers allocate interleaved by default
  Off,        ///< ignore topology entirely: flat scheduling, no binding
};

/// Execution-tracing mode (OSS_TRACE, docs/observability.md).
enum class TraceMode {
  Off,  ///< no tracing, zero overhead
  Exec, ///< one run-span event per executed task (classic TraceRecorder view)
  Full, ///< full lifecycle: spawn/ready/run + steal, park/unpark, overflow
        ///< placements, dependency edges — still lock-free, drop-on-full
};

/// Worker→CPU pinning layout (OSS_PIN).
enum class PinMode {
  Off,     ///< no pinning
  Node,    ///< each worker pinned to its home node's whole CPU set; dissolves
           ///< on single-node topologies (classic OSS_PIN=1)
  Compact, ///< worker i pinned to the i-th CPU in node-major enumeration —
           ///< fills one node before spilling to the next
  Scatter, ///< worker i pinned to node (i mod nodes) — round-robins workers
           ///< across nodes, one CPU each
};

const char* to_string(SchedulerPolicy p) noexcept;
const char* to_string(WaitPolicy p) noexcept;
const char* to_string(IdlePolicy p) noexcept;
const char* to_string(NumaMode m) noexcept;
const char* to_string(TraceMode m) noexcept;
const char* to_string(PinMode m) noexcept;

/// Parses a policy name; throws std::invalid_argument on unknown names.
SchedulerPolicy parse_scheduler_policy(const std::string& name);
WaitPolicy parse_wait_policy(const std::string& name);
IdlePolicy parse_idle_policy(const std::string& name);
NumaMode parse_numa_mode(const std::string& name);
TraceMode parse_trace_mode(const std::string& name);
PinMode parse_pin_mode(const std::string& name);

/// Parses a non-negative integer env knob (`name` only labels the error).
/// Strict: plain decimal digits, nothing else — a leading '-' must throw,
/// not wrap through strtoull to ~2^64, and '+'/whitespace/trailing junk are
/// rejected the same way.  Every OSS_* integer knob (including the
/// OSS_SERVICE_* family) goes through this.
std::size_t parse_env_size(const char* name, const char* value);

/// Parses a boolean env knob (1/true/yes/on, 0/false/no/off).
bool parse_env_bool(const char* name, const char* value);

/// Complete configuration of a `Runtime`.
struct RuntimeConfig {
  /// Executor slots: slot 0 is the thread that constructs the runtime
  /// (which executes tasks while it waits) or, while that thread lends the
  /// slot (Runtime::lend_slot0, taken by a Service built on it), a
  /// stand-in thread; slots 1..N-1 are pool workers.  Must be >= 1;
  /// `num_threads == 1` degenerates to lazy sequential execution at wait
  /// points unless slot 0 is lent.
  std::size_t num_threads = 0; // 0 = use hardware concurrency

  SchedulerPolicy scheduler = SchedulerPolicy::Locality;
  WaitPolicy wait_policy = WaitPolicy::Polling;
  IdlePolicy idle = IdlePolicy::Park;

  /// Busy-poll iterations before an idle worker parks/yields/sleeps.
  std::size_t spin_rounds = 64;

  /// Ceiling of full sweeps over sibling deques a pick() makes before
  /// reporting a failed steal (OSS_STEAL_TRIES; must be >= 1).  The actual
  /// per-worker sweep count adapts downward with the observed failed-steal
  /// rate and recovers on successful steals.
  std::size_t steal_tries = 2;

  /// NUMA placement mode (OSS_NUMA).
  NumaMode numa = NumaMode::Bind;

  /// Topology override (OSS_TOPOLOGY): "" = sysfs discovery with a flat
  /// fallback, "flat", "numa", or a fake spec like "2x4" / "0:0-3;1:4-7"
  /// (validated by Topology::detect at runtime construction).
  std::string topology;

  /// Pin each worker thread to the CPU set of its home node (OSS_PIN).
  /// Legacy boolean view of `pin_mode`; true is equivalent to
  /// PinMode::Node.  Workers whose target CPUs fall outside the process
  /// affinity mask stay unpinned (one warning line, never an abort).
  bool pin = false;

  /// Pinning layout (OSS_PIN=node|compact|scatter).  When Off, the legacy
  /// `pin` bool decides (true = Node); see `resolved_pin_mode()`.
  PinMode pin_mode = PinMode::Off;

  /// Home-queue pressure feedback threshold (OSS_PRESSURE): when a node's
  /// ready queue holds at least this many tasks while another node has
  /// parked workers, soft (auto/inherited) placements temporarily widen to
  /// the global tier.  0 disables the feedback.
  std::size_t pressure = 8;

  /// Dependency-domain shard count (OSS_DEP_SHARDS): declared address
  /// ranges hash to this many independently-locked interval maps, so
  /// concurrent spawners touching disjoint regions register without
  /// contending.  Must be a power of two in [1, 256]; 1 collapses to the
  /// classic single-lock domain (bit-exact edge sets — the escape hatch).
  /// See docs/dependencies.md for the hashing and lock-ordering protocol.
  std::size_t dep_shards = 8;

  /// Allocation recycling (OSS_POOL, docs/memory.md): pooled Task objects
  /// with intrusive refcounts and pooled dependency-map nodes, making the
  /// warmed spawn→execute→retire cycle allocation-free.  false restores
  /// plain `new`/`delete` per task (bit-exact dependency semantics).  The
  /// default is environment-sensitive so suites constructing RuntimeConfig
  /// directly still honor an OSS_POOL=off sweep.
  bool pool = pool::enabled_by_default();

  /// Record task-graph nodes/edges for `Runtime::export_graph_dot()`.
  bool record_graph = false;

  /// Record per-task execution events for `Runtime::export_trace_json()`.
  /// Legacy boolean view of `trace_mode`; true is equivalent to
  /// TraceMode::Exec.
  bool record_trace = false;

  /// Tracing mode (OSS_TRACE=off|exec|full).  When Off, the legacy
  /// `record_trace` bool decides (true = Exec); see `resolved_trace_mode()`.
  TraceMode trace_mode = TraceMode::Off;

  /// Per-thread trace ring capacity in events (OSS_TRACE_BUF; rounded up to
  /// a power of two by the ring).  Sized so a spawn burst between two
  /// quiescent points fits; overflow drops events and bumps `trace_dropped`.
  std::size_t trace_buffer = 32768;

  /// Export the trace here when the runtime is destroyed (OSS_TRACE_OUT).
  /// ".prv" suffix selects the Paraver format (a matching ".row"/".pcf"
  /// pair is written next to it), anything else Chrome trace-event JSON.
  /// Empty = no automatic export.
  std::string trace_out;

  /// Period in milliseconds of the optional stats/trace collector thread
  /// (OSS_STATS_EVERY_MS): every period it drains the trace rings and
  /// prints a StatsSnapshot delta line to stderr.  0 = no collector.
  std::size_t stats_every_ms = 0;

  /// Collect per-label task profiles and the work/span critical path
  /// (OSS_PROF, docs/observability.md).  When set, `Runtime::profile()`
  /// returns live data and the OSS_PROF=1 footer table prints at shutdown.
  bool prof = false;

  /// Period in milliseconds of periodic profile delta lines on the
  /// collector thread (OSS_PROF_EVERY_MS).  Implies profile collection.
  /// 0 = footer only.
  std::size_t prof_every_ms = 0;

  /// Health-watchdog interval in milliseconds (OSS_WATCHDOG): the collector
  /// thread flags intervals with tasks in flight but zero retirements and
  /// dumps runtime state (`Runtime::dump_health`); SIGUSR1 triggers the
  /// same dump on demand.  Implies profile collection (the dump reports
  /// task ages from the profiling timestamps).  0 = off.
  std::size_t watchdog_ms = 0;

  /// Resolves `num_threads == 0` to the hardware concurrency (min 1).
  [[nodiscard]] std::size_t resolved_threads() const noexcept;

  /// Effective tracing mode: `trace_mode` when set, else the legacy
  /// `record_trace` bool mapped to Exec.
  [[nodiscard]] TraceMode resolved_trace_mode() const noexcept {
    if (trace_mode != TraceMode::Off) return trace_mode;
    return record_trace ? TraceMode::Exec : TraceMode::Off;
  }

  /// Effective pinning layout: `pin_mode` when set, else the legacy `pin`
  /// bool mapped to Node.
  [[nodiscard]] PinMode resolved_pin_mode() const noexcept {
    if (pin_mode != PinMode::Off) return pin_mode;
    return pin ? PinMode::Node : PinMode::Off;
  }

  /// The topology a Runtime built from this config schedules against:
  /// flat when `numa == Off` (placement structurally dissolved), otherwise
  /// `Topology::detect(topology)`.  The single source of the rule — the
  /// Runtime constructor and diagnostics (table1's NUMA header) share it.
  [[nodiscard]] Topology resolved_topology() const;

  /// Reads OSS_* environment variables; unset variables keep defaults.
  /// Malformed values throw std::invalid_argument.
  static RuntimeConfig from_env();

  /// Convenience: default config with an explicit thread count.
  static RuntimeConfig with_threads(std::size_t n) {
    RuntimeConfig c;
    c.num_threads = n;
    return c;
  }
};

} // namespace oss
