// opgraph.cpp — the `opgraph` (fresh dependency resolution) and
// `opgraph_replay` (capture once, Runtime::replay after) workloads.
//
// The graph is the apps::opgraph shape at its default scale: 42 layers of
// 48 operators over 32-element uint64 buffers, op (l, j) reading columns j
// and neighbor(l, j) of layer l-1.  The benchmark spawns it itself through
// the public TaskBuilder so it can time each spawn() call and wrap each body;
// the kernels mirror src/apps/opgraph/opgraph_app.cpp and the self-test
// checks they reproduce apps::opgraph_seq bit for bit.  Bodies are tiny, so
// spawn, dependency registration, wakeup and stealing dominate.
#include <algorithm>
#include <cstdio>
#include <functional>
#include <unordered_map>
#include <vector>

#include "bench.hpp"
#include "ompss/ompss.hpp"

namespace perfbench {
namespace {

constexpr int kWidth = 48;
constexpr int kLayers = 42;
constexpr int kElems = 32;
constexpr int kOps = kWidth * kLayers;
constexpr std::size_t kRow = static_cast<std::size_t>(kWidth) * kElems;
constexpr std::size_t kBytes = kElems * sizeof(std::uint64_t);
constexpr std::uint64_t kMix = 0x9e3779b97f4a7c15ull;

/// Iterations run inside every set-up, after the runtime exists, so pools
/// and caches are warm before timing starts (and the cost shows in setup_s).
constexpr int kWarmupIters = 40;
constexpr int kSetups = 3;
constexpr std::size_t kSpanCapacity = std::size_t{1} << 18;

inline std::uint64_t rotl64(std::uint64_t v, int s) noexcept {
  return (v << s) | (v >> (64 - s));
}
inline int op_kind(int l, int j) noexcept { return (l * 31 + j) & 3; }
inline int neighbor(int l, int j) noexcept { return (j + 1 + (l % 3)) % kWidth; }

void run_op(int kind, const std::uint64_t* a, const std::uint64_t* b,
            std::uint64_t* out) noexcept {
  switch (kind) {
    case 0:
      for (int e = 0; e < kElems; ++e) out[e] = a[e] + 3 * b[e] + 1;
      break;
    case 1:
      for (int e = 0; e < kElems; ++e) out[e] = (a[e] ^ b[e]) * 0x100000001b3ull;
      break;
    case 2:
      for (int e = 0; e < kElems; ++e) out[e] = rotl64(a[e], 7) + (b[e] >> 3);
      break;
    default:
      for (int e = 0; e < kElems; ++e) out[e] = (a[e] >> 1) + (b[e] << 1) + kMix;
      break;
  }
}

const char* label_of(int kind) noexcept {
  switch (kind) {
    case 0: return "op_add";
    case 1: return "op_xmul";
    case 2: return "op_rot";
    default: return "op_shift";
  }
}

/// The buffers of one run: the evolving input row and one row per layer.
struct Graph {
  std::vector<std::uint64_t> input = std::vector<std::uint64_t>(kRow);
  std::vector<std::uint64_t> layers =
      std::vector<std::uint64_t>(kRow * kLayers, 0);

  /// Seeded input values (`canonical` = the apps::opgraph input instead).
  Graph(std::uint64_t seed, bool canonical) {
    for (std::size_t x = 0; x < kRow; ++x) {
      input[x] = canonical ? (static_cast<std::uint64_t>(x) + 1) * kMix
                           : mix64(mix64(seed) ^ x);
    }
  }

  [[nodiscard]] const std::uint64_t* src(int l) const noexcept {
    return l == 0 ? input.data()
                  : layers.data() + static_cast<std::size_t>(l - 1) * kRow;
  }
  [[nodiscard]] std::uint64_t* dst(int l) noexcept {
    return layers.data() + static_cast<std::size_t>(l) * kRow;
  }
  [[nodiscard]] const std::uint64_t* a(int l, int j) const noexcept {
    return src(l) + static_cast<std::size_t>(j) * kElems;
  }
  [[nodiscard]] const std::uint64_t* b(int l, int j) const noexcept {
    return src(l) + static_cast<std::size_t>(neighbor(l, j)) * kElems;
  }
  [[nodiscard]] std::uint64_t* out(int l, int j) noexcept {
    return dst(l) + static_cast<std::size_t>(j) * kElems;
  }

  /// Folds the last layer into the running checksum and feeds it back as
  /// the next iteration's input (same rule as apps::opgraph).
  std::uint64_t fold_and_advance(std::uint64_t sum) {
    const std::uint64_t* last = dst(kLayers - 1);
    for (std::size_t x = 0; x < kRow; ++x) {
      sum = rotl64(sum, 1) ^ last[x];
      input[x] = rotl64(last[x], 11) + kMix;
    }
    return sum;
  }

  void seq_iteration() {
    for (int l = 0; l < kLayers; ++l) {
      for (int j = 0; j < kWidth; ++j) run_op(op_kind(l, j), a(l, j), b(l, j), out(l, j));
    }
  }
};

/// What a wrapped body needs besides its operands.
struct Probe {
  Tracer* tracer = nullptr;
  std::int64_t inject_body_ns = 0;
  std::int64_t inject_spawn_ns = 0;
};

/// The task body: the operator, timed into a Body span when tracing.
/// 48 bytes — fits the runtime's inline body storage like the app's lambda.
struct Body {
  const std::uint64_t* a;
  const std::uint64_t* b;
  std::uint64_t* out;
  const Probe* probe;
  std::uint64_t iter;
  std::uint32_t op;
  int kind;

  void operator()() const {
    if (!probe->tracer->on()) {
      busy_wait_ns(probe->inject_body_ns);
      run_op(kind, a, b, out);
      return;
    }
    const std::int64_t t0 = now_ns();
    busy_wait_ns(probe->inject_body_ns);
    run_op(kind, a, b, out);
    probe->tracer->record(SpanName::Body, iter, t0, now_ns(), op);
  }
};

Body make_body(Graph& g, const Probe& p, std::uint64_t iter, int op) {
  const int l = op / kWidth;
  const int j = op % kWidth;
  return Body{g.a(l, j), g.b(l, j), g.out(l, j), &p, iter,
              static_cast<std::uint32_t>(op), op_kind(l, j)};
}

/// Spawns one iteration through the TaskBuilder; each rt.task(..)...spawn()
/// expression is one Spawn span.
void spawn_iteration(oss::Runtime& rt, Graph& g, const Probe& p,
                     std::uint64_t iter) {
  Tracer& tr = *p.tracer;
  for (int op = 0; op < kOps; ++op) {
    const int l = op / kWidth;
    const int j = op % kWidth;
    const bool timed = tr.on();
    const std::int64_t t0 = timed ? now_ns() : 0;
    busy_wait_ns(p.inject_spawn_ns);
    rt.task(label_of(op_kind(l, j)))
        .in(g.a(l, j), kBytes)
        .in(g.b(l, j), kBytes)
        .out(g.out(l, j), kBytes)
        .spawn(make_body(g, p, iter, op));
    if (timed) tr.record(SpanName::Spawn, iter, t0, now_ns(), static_cast<std::uint32_t>(op));
  }
}

/// One live run: graph buffers, runtime, (replay) captured graph.
struct Live {
  Graph g;
  oss::Runtime rt;
  oss::ReplayGraph graph;
  std::function<oss::Task::Fn(std::size_t)> binder;
  std::uint64_t sum = 0;
  std::vector<std::uint64_t> sums; ///< running checksum after each iteration
  std::uint64_t bind_iter = 0;     ///< cause id the binder stamps on bodies
  double capture_ms = 0.0;

  Live(const Options& o, const Probe& p, bool replay)
      : g(o.seed, false), rt(o.threads) {
    if (!replay) return;
    Tracer& tr = *p.tracer;
    const std::int64_t t0 = now_ns();
    const std::uint64_t cap_id = tr.reserve();
    {
      oss::GraphCapture cap(rt);
      spawn_iteration(rt, g, p, cap_id);
      graph = cap.finish();
    }
    const std::int64_t t1 = now_ns();
    tr.fill(cap_id, SpanName::Capture, 0, t0, t1);
    capture_ms = static_cast<double>(t1 - t0) * 1e-6;
    rt.taskwait();
    advance();
    binder = [this, &p](std::size_t i) -> oss::Task::Fn {
      return make_body(g, p, bind_iter, static_cast<int>(i));
    };
  }

  void advance() {
    sum = g.fold_and_advance(sum);
    sums.push_back(sum);
  }

  /// One iteration (spawn or replay, then taskwait); returns its wall ns.
  std::int64_t iterate(const Probe& p, bool replay) {
    Tracer& tr = *p.tracer;
    const std::int64_t t0 = now_ns();
    const std::uint64_t id = tr.reserve();
    if (replay) {
      bind_iter = id;
      rt.replay(graph, binder);
      tr.record(SpanName::Replay, id, t0, now_ns());
    } else {
      spawn_iteration(rt, g, p, id);
    }
    const std::int64_t w0 = tr.on() ? now_ns() : 0;
    rt.taskwait();
    const std::int64_t t1 = now_ns();
    tr.record(SpanName::Taskwait, id, w0, t1);
    tr.fill(id, SpanName::Iteration, 0, t0, t1, static_cast<std::uint32_t>(sums.size()));
    advance();
    return t1 - t0;
  }
};

/// Iterates for `seconds` (or until the tracer is nearly full, when it is
/// on); returns each iteration's wall time in ms.
std::vector<double> measure(Live& live, const Probe& p, bool replay,
                            double seconds) {
  std::vector<double> ms;
  const std::int64_t end = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  do {
    ms.push_back(static_cast<double>(live.iterate(p, replay)) * 1e-6);
  } while (now_ns() < end && !(p.tracer->on() && p.tracer->nearly_full()));
  return ms;
}

/// Tasks per second: the median over consecutive stretches of about half a
/// second of iterations.  A whole-run mean moved by 30% when the host
/// descheduled the spawner for a few hundred ms once in a run.
double tasks_per_s(const std::vector<double>& ms) {
  constexpr double kStretchMs = 500.0;
  std::vector<double> rates;
  double t = 0.0;
  std::size_t n = 0;
  for (double x : ms) {
    t += x;
    ++n;
    if (t >= kStretchMs) {
      rates.push_back(static_cast<double>(n * kOps) / (t * 1e-3));
      t = 0.0;
      n = 0;
    }
  }
  if (rates.empty() && n > 0) rates.push_back(static_cast<double>(n * kOps) / (t * 1e-3));
  return median(rates);
}

/// Per-layer numbers from the traced phase's spans.
void analyze(const std::vector<Span>& spans, std::size_t threads, bool replay,
             Result& r) {
  struct Op {
    std::int64_t submit = 0, start = 0, end = 0;
    bool ran = false;
  };
  struct Iter {
    std::vector<Op> ops = std::vector<Op>(kOps);
    std::int64_t submitted = 0; ///< replay() return
    std::int64_t waited = 0;    ///< taskwait() return
    bool whole = false;         ///< Iteration span present
  };
  std::unordered_map<std::uint64_t, Iter> iters;
  std::vector<double> spawn_ns, body_ns, replay_ns;
  double body_total = 0.0, wall_total = 0.0;
  for (const Span& s : spans) {
    const double d = static_cast<double>(s.end - s.start);
    switch (s.name) {
      case SpanName::Spawn:
        spawn_ns.push_back(d);
        iters[s.cause].ops[s.arg].submit = s.end;
        break;
      case SpanName::Body: {
        body_ns.push_back(d);
        body_total += d;
        Op& op = iters[s.cause].ops[s.arg];
        op.start = s.start;
        op.end = s.end;
        op.ran = true;
        break;
      }
      case SpanName::Replay:
        replay_ns.push_back(d / kOps);
        iters[s.cause].submitted = s.end;
        break;
      case SpanName::Taskwait:
        iters[s.cause].waited = s.end;
        break;
      default:
        break;
    }
  }
  // Span ids are slot index + 1; the capture has no Iteration span.
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].name != SpanName::Iteration) continue;
    wall_total += static_cast<double>(spans[i].end - spans[i].start);
    auto it = iters.find(i + 1);
    if (it != iters.end()) it->second.whole = true;
  }

  std::vector<double> wait_ns, drain_us;
  for (auto& [id, it] : iters) {
    if (!it.whole) continue; // the capture iteration: held until finish()
    std::int64_t last_end = 0;
    for (int op = 0; op < kOps; ++op) {
      const Op& o = it.ops[static_cast<std::size_t>(op)];
      if (!o.ran) continue;
      last_end = std::max(last_end, o.end);
      std::int64_t ready = replay ? it.submitted : o.submit;
      const int l = op / kWidth;
      if (l > 0) {
        const int j = op % kWidth;
        const std::size_t p1 = static_cast<std::size_t>((l - 1) * kWidth + j);
        const std::size_t p2 =
            static_cast<std::size_t>((l - 1) * kWidth + neighbor(l, j));
        ready = std::max({ready, it.ops[p1].end, it.ops[p2].end});
      }
      wait_ns.push_back(static_cast<double>(std::max<std::int64_t>(0, o.start - ready)));
    }
    if (it.waited > 0 && last_end > 0) {
      drain_us.push_back(static_cast<double>(std::max<std::int64_t>(0, it.waited - last_end)) * 1e-3);
    }
  }

  r.layer("ompss.spawn_ns.p50", percentile(spawn_ns, 50), "ns");
  r.layer("ompss.spawn_ns.p99", percentile(spawn_ns, 99), "ns");
  r.layer("ompss.ready_wait_ns.p50", percentile(wait_ns, 50), "ns");
  r.layer("ompss.ready_wait_ns.p99", percentile(wait_ns, 99), "ns");
  r.layer("ompss.body_ns.p50", percentile(body_ns, 50), "ns");
  r.layer("ompss.drain_us", median(drain_us), "us");
  r.layer("ompss.busy_frac",
          wall_total > 0 ? body_total / (static_cast<double>(threads) * wall_total) : 0.0,
          "frac");
  if (replay) r.layer("ompss.replay_ns_per_task", median(replay_ns), "ns");
}

} // namespace

std::uint64_t opgraph_canonical_seq(int iters) {
  Graph g(0, true);
  std::uint64_t sum = 0;
  for (int it = 0; it < iters; ++it) {
    g.seq_iteration();
    sum = g.fold_and_advance(sum);
  }
  return sum;
}

Result run_opgraph(const Options& o, bool replay) {
  Result r;
  Tracer tracer(o.trace ? kSpanCapacity : 0);
  Probe probe{&tracer, o.inject_body_ns, o.inject_spawn_ns};

  // Set-up, repeated: inputs, runtime, capture (replay), warm-up.  The last
  // one is kept for the measurement.
  std::vector<double> setup_s, capture_ms;
  std::unique_ptr<Live> live;
  for (int s = 0; s < kSetups; ++s) {
    live.reset();
    if (o.trace && s == kSetups - 1) tracer.start(); // capture's spawns
    const std::int64_t t0 = now_ns();
    live = std::make_unique<Live>(o, probe, replay);
    tracer.stop();
    for (int w = 0; w < kWarmupIters; ++w) live->iterate(probe, replay);
    setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
    if (replay) capture_ms.push_back(live->capture_ms);
  }

  std::vector<double> ms = measure(*live, probe, replay,
                                   o.trace ? o.seconds / 2 : o.seconds);
  std::vector<double> traced_ms;
  if (o.trace) {
    const oss::StatsSnapshot before = live->rt.stats();
    tracer.start();
    traced_ms = measure(*live, probe, replay, o.seconds / 2);
    tracer.stop();
    add_stats_layers(r, before, live->rt.stats());
  }

  // Verify: a sequential run of the same graph over the same iterations.
  const std::size_t n = live->sums.size();
  Graph ref(o.seed, false);
  std::uint64_t sum = 0;
  const std::int64_t s0 = now_ns();
  for (std::size_t it = 0; it < n; ++it) {
    ref.seq_iteration();
    sum = ref.fold_and_advance(sum);
    if (sum != live->sums[it]) ++r.failed;
  }
  const double seq_ms = static_cast<double>(now_ns() - s0) * 1e-6 / static_cast<double>(n);
  r.attempted = n;

  std::vector<double> sorted = ms;
  const double p90 = percentile(sorted, 90);
  const double p99 = percentile(sorted, 99);
  const double per_s = tasks_per_s(ms);
  const double p50 = median(ms);
  r.e2e("setup_s", median(setup_s), "s");
  r.e2e("latency_ms", p50, "ms");
  r.e2e("throughput_per_s", per_s, "1/s");

  r.layer("apps.seq_ms", seq_ms, "ms");
  if (replay) r.layer("ompss.capture_ms", median(capture_ms), "ms");
  if (o.trace) {
    analyze(tracer.spans(), o.threads, replay, r);
    r.layer("trace_overhead_frac", (median(traced_ms) - p50) / p50, "frac");
    if (!o.trace_path.empty() && !tracer.write(o.trace_path)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", o.trace_path.c_str());
    }
  }

  char line[256];
  if (o.trace) {
    std::snprintf(line, sizeof line, "spans=%zu dropped_spans=%llu",
                  tracer.spans().size(),
                  static_cast<unsigned long long>(tracer.dropped()));
    r.report.emplace_back(line);
  }
  std::snprintf(line, sizeof line,
                "%s=%.1f 1/s iteration_p50_ms=%.3f iteration_p90_ms=%.3f "
                "iteration_p99_ms=%.3f iterations=%zu tasks_per_iteration=%d",
                replay ? "replay_tasks_per_s" : "tasks_per_s", per_s, p50, p90, p99, ms.size(),
                kOps);
  r.report.emplace_back(line);
  std::snprintf(line, sizeof line, "inputs=%016llx",
                static_cast<unsigned long long>(mix64(Graph(o.seed, false).input[0])));
  r.report.emplace_back(line);
  return r;
}

} // namespace perfbench
