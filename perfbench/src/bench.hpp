// bench.hpp — shared pieces of the perfbench workloads: the clock, sample
// statistics, the in-memory span tracer, and the result a workload returns.
//
// Every workload drives the system only through its public functions and
// times those calls (and the task bodies it wraps itself) from outside.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "bench_core/statistics.hpp"
#include "ompss/stats.hpp"

namespace perfbench {

/// Monotonic nanoseconds since an arbitrary process-wide origin.
inline std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Spins for `ns` nanoseconds (the attribution self-test's injected cost).
inline void busy_wait_ns(std::int64_t ns) noexcept {
  if (ns <= 0) return;
  const std::int64_t until = now_ns() + ns;
  while (now_ns() < until) {
  }
}

/// SplitMix64: every generated input derives from the --seed through this.
inline std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// --- sample statistics ------------------------------------------------------

using benchcore::geomean;
using benchcore::median;

/// Nearest-rank percentile (p in [0, 100]); 0 for an empty sample.  Sorts.
double percentile(std::vector<double>& xs, double p);

// --- tracing ----------------------------------------------------------------

/// Span names.  A span's `arg` carries the task/app/frame index it belongs
/// to; its `cause` is the id of the span that caused it (an iteration, a
/// frame, a session), 0 for none.
enum class SpanName : std::uint16_t {
  Unfilled,   ///< a reserved slot whose span never ended
  AppSeq,     ///< decode_service: one apps::h264dec_seq call on the clip
  AppPthreads,///< decode_service: one apps::h264dec_pthreads call
  AppOmpss,   ///< decode_service: one apps::h264dec_ompss call
  Iteration,  ///< opgraph: one iteration, first spawn to taskwait() return
  Spawn,      ///< opgraph: rt.task(..)...spawn() call (arg = op index)
  Replay,     ///< opgraph: one Runtime::replay() call
  Body,       ///< opgraph: the wrapped task body (arg = op index)
  Taskwait,   ///< opgraph: one Runtime::taskwait() call
  Capture,    ///< opgraph: GraphCapture scope, open to finish()
  Frame,      ///< decode_service: one frame, due time to output
  Submit,     ///< decode_service: one admitted H264DecSession::submit()
  Open,       ///< decode_service: H264DecService::open()
  Close,      ///< decode_service: H264DecSession::close()
  Count_
};
const char* span_name(SpanName n) noexcept;

struct Span {
  std::uint64_t cause = 0;
  std::int64_t start = 0;
  std::int64_t end = 0;
  SpanName name = SpanName::Unfilled;
  std::uint16_t thread = 0;
  std::uint32_t arg = 0;
};

/// Fixed-capacity in-memory span store.  Recording is lock-free (one
/// fetch_add) and safe from any thread; spans past the capacity are counted
/// as dropped.  A span's id is its slot index + 1.  Starts stopped; while
/// stopped, reserve()/record() return 0 and record nothing.
class Tracer {
 public:
  explicit Tracer(std::size_t capacity) : buf_(capacity) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  [[nodiscard]] bool on() const noexcept {
    return on_.load(std::memory_order_relaxed);
  }
  void start() noexcept {
    on_.store(!buf_.empty(), std::memory_order_relaxed);
  }
  void stop() noexcept { on_.store(false, std::memory_order_relaxed); }
  /// Reserves a slot for a span that is still open, so its children can
  /// name it as their cause before it ends; returns its id (0 when off or
  /// full).  Complete it with fill().
  std::uint64_t reserve() noexcept;
  void fill(std::uint64_t id, SpanName name, std::uint64_t cause,
            std::int64_t start, std::int64_t end,
            std::uint32_t arg = 0) noexcept;
  /// Records one finished span; returns its id (0 when off or full).
  std::uint64_t record(SpanName name, std::uint64_t cause, std::int64_t start,
                       std::int64_t end, std::uint32_t arg = 0) noexcept {
    const std::uint64_t id = reserve();
    fill(id, name, cause, start, end, arg);
    return id;
  }
  /// True once at least `frac` of the capacity is used.
  [[nodiscard]] bool nearly_full(double frac = 0.9) const noexcept;

  /// Spans recorded so far (stable once recording threads are quiescent).
  /// A reserved slot never filled reads as a zero-length Unfilled span.
  [[nodiscard]] std::vector<Span> spans() const;
  [[nodiscard]] std::uint64_t dropped() const noexcept {
    return dropped_.load(std::memory_order_relaxed);
  }
  /// Writes every recorded span as one tab-separated line
  /// (id cause name thread arg start_ns end_ns).  Returns false on I/O error.
  bool write(const std::string& path) const;

 private:
  std::atomic<bool> on_{false};
  std::vector<Span> buf_;
  std::atomic<std::size_t> next_{0};
  std::atomic<std::uint64_t> dropped_{0};
};

/// Small dense id of the calling thread, for span records.
std::uint16_t thread_index() noexcept;

// --- results ----------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports.
struct Result {
  std::uint64_t attempted = 0; ///< operations tried (app calls, iterations,
                               ///< frames, opens)
  std::uint64_t failed = 0;    ///< mismatched outputs, refused opens, frames
                               ///< never output
  bool valid = true;           ///< false when the run cannot be trusted
                               ///< (e.g. the open-loop generator ran late)
  std::string invalid_reason;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  /// Human-readable name=value lines for the run report (stdout, before
  /// the result line).
  std::vector<std::string> report;

  void e2e(std::string name, double v, std::string unit) {
    end_to_end.push_back({std::move(name), v, std::move(unit)});
  }
  void layer(std::string name, double v, std::string unit) {
    per_layer.push_back({std::move(name), v, std::move(unit)});
  }
};

/// Per-task ratios of a Runtime::stats() delta, shared by every workload
/// that owns (or is handed) a runtime's counters.
void add_stats_layers(Result& r, const oss::StatsSnapshot& before,
                      const oss::StatsSnapshot& after);

/// Options common to every workload.
struct Options {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::size_t threads = 4; ///< runtime executors (nproc)
  std::string trace_path;  ///< where the traced run writes its spans
  /// Attribution self-test hooks: busy-waits injected into the bench's own
  /// body wrapper / around the spawn call (0 = off; never set by run.py).
  std::int64_t inject_body_ns = 0;
  std::int64_t inject_spawn_ns = 0;
};

/// The opgraph workload's kernels on apps::opgraph's own input: the running
/// checksum after `iters` sequential iterations (self-test hook).
std::uint64_t opgraph_canonical_seq(int iters);
Result run_opgraph(const Options& o, bool replay);
Result run_decode_service(const Options& o);

} // namespace perfbench
