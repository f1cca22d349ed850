#include "bench.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

double percentile(std::vector<double>& xs, double p) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(xs.size()));
  const auto idx = static_cast<std::size_t>(std::max(1.0, rank)) - 1;
  return xs[std::min(idx, xs.size() - 1)];
}

const char* span_name(SpanName n) noexcept {
  switch (n) {
    case SpanName::Unfilled: return "unfilled";
    case SpanName::AppSeq: return "app_seq";
    case SpanName::AppPthreads: return "app_pthreads";
    case SpanName::AppOmpss: return "app_ompss";
    case SpanName::Iteration: return "iteration";
    case SpanName::Spawn: return "spawn";
    case SpanName::Replay: return "replay";
    case SpanName::Body: return "body";
    case SpanName::Taskwait: return "taskwait";
    case SpanName::Capture: return "capture";
    case SpanName::Frame: return "frame";
    case SpanName::Submit: return "submit";
    case SpanName::Open: return "open";
    case SpanName::Close: return "close";
    case SpanName::Count_: break;
  }
  return "?";
}

std::uint64_t Tracer::reserve() noexcept {
  if (!on()) return 0;
  const std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
  if (i >= buf_.size()) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return 0;
  }
  return i + 1;
}

void Tracer::fill(std::uint64_t id, SpanName name, std::uint64_t cause,
                  std::int64_t start, std::int64_t end,
                  std::uint32_t arg) noexcept {
  if (id == 0) return;
  buf_[id - 1] = Span{cause, start, end, name, thread_index(), arg};
}

bool Tracer::nearly_full(double frac) const noexcept {
  return static_cast<double>(next_.load(std::memory_order_relaxed)) >=
         frac * static_cast<double>(buf_.size());
}

std::vector<Span> Tracer::spans() const {
  const std::size_t n =
      std::min(next_.load(std::memory_order_acquire), buf_.size());
  return {buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(n)};
}

bool Tracer::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::fprintf(f, "# id\tcause\tname\tthread\targ\tstart_ns\tend_ns\n");
  const std::vector<Span> all = spans();
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    std::fprintf(f, "%zu\t%llu\t%s\t%u\t%u\t%lld\t%lld\n", i + 1,
                 static_cast<unsigned long long>(s.cause), span_name(s.name),
                 static_cast<unsigned>(s.thread), static_cast<unsigned>(s.arg),
                 static_cast<long long>(s.start),
                 static_cast<long long>(s.end));
  }
  return std::fclose(f) == 0;
}

std::uint16_t thread_index() noexcept {
  static std::atomic<std::uint16_t> next{0};
  thread_local const std::uint16_t mine =
      next.fetch_add(1, std::memory_order_relaxed);
  return mine;
}

void add_stats_layers(Result& r, const oss::StatsSnapshot& before,
                      const oss::StatsSnapshot& after) {
  const auto d = [](std::uint64_t a, std::uint64_t b) {
    return static_cast<double>(a - b);
  };
  const double tasks = std::max(1.0, d(after.tasks_executed, before.tasks_executed));
  const double steals = d(after.steals, before.steals);
  const double tries = steals + d(after.steals_failed, before.steals_failed);
  r.layer("ompss.edges_per_task", d(after.edges_total(), before.edges_total()) / tasks,
          "1/task");
  r.layer("ompss.dep_contended", d(after.dep_contended, before.dep_contended) / tasks,
          "1/task");
  r.layer("ompss.pool_misses", d(after.pool_misses, before.pool_misses) / tasks,
          "1/task");
  r.layer("ompss.steals_per_task", steals / tasks, "1/task");
  r.layer("ompss.steal_success", tries > 0 ? steals / tries : 0.0, "frac");
  r.layer("ompss.parks_per_task", d(after.parks, before.parks) / tasks, "1/task");
  r.layer("ompss.wakeups_per_task", d(after.wakeups, before.wakeups) / tasks,
          "1/task");
  r.layer("ompss.replayed_tasks", d(after.replayed_tasks, before.replayed_tasks),
          "count");
}

} // namespace perfbench
