// decode_service.cpp — the `decode_service` workload: four concurrent
// medium (640x384) H.264 streams on one apps::H264DecService, driven open
// loop by one generator thread.
//
// Each stream has frames due at a fixed rate (kStreamFps) from a seeded
// phase offset; the generator submits due frames with Submit::FailFast and
// holds bounced ones in a per-stream backlog.  A session decodes kLoops
// loops of the clip from a seeded I-frame start point, then closes (once
// its window has drained, so the generator never blocks) and reopens; the
// staggered offsets keep opens and closes spread over the run.  Latency is
// timed from each frame's due time, so a late generator cannot hide
// queueing.  A second, saturating phase keeps every window full and gives
// the completed frames per second.  Every frame's checksum is checked
// against apps::h264dec_seq.
#include <algorithm>
#include <cstdio>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "apps/h264dec/h264dec_service.hpp"
#include "bench.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kStreams = 4;
constexpr std::size_t kWindow = 4;
/// Per-stream frame rate of the open-loop phase: about a quarter of the
/// saturated per-stream throughput on a 4-CPU host (perfbench/README.md
/// says why not half); fixed so parent and child see the same load.
constexpr double kStreamFps = 40.0;
constexpr std::int64_t kPeriodNs = static_cast<std::int64_t>(1e9 / kStreamFps);
/// A frame later than this (from its due time) misses its deadline.
constexpr double kDeadlineMs = 100.0;
/// The run is invalid when the generator's p99 lateness exceeds this: two
/// frame periods.  Lateness counts in the latency (timed from the due time)
/// either way; past this the load was no longer the intended one.  (The
/// spinning generator's p99 reached 13 ms when the host was busy.)
constexpr double kMaxGenLagMs = 50.0;
constexpr int kLoops = 2; ///< clip loops per session
constexpr int kSetups = 3;
/// Share of --seconds given to the open-loop phase (the rest saturates).
constexpr double kOpenLoopShare = 0.6;
/// Retry interval for a stream whose window is full or draining.
constexpr std::int64_t kPollNs = 200'000;
/// How long after the last due time the generator keeps trying to submit.
constexpr std::int64_t kGiveUpNs = 10'000'000'000;
/// How long before a due time the generator stops sleeping and spins.
constexpr std::int64_t kSpinNs = 1'000'000;
constexpr std::size_t kSpanCapacity = std::size_t{1} << 18;

void sleep_until_ns(std::int64_t t) {
  std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
      std::chrono::nanoseconds(t)));
}

/// Sleeps until shortly before `t`, then spins: a sleeping generator wakes
/// milliseconds late on a busy host, and that lateness would dominate the
/// frame latency tail.
void wait_until_ns(std::int64_t t) {
  if (t - now_ns() > kSpinNs) sleep_until_ns(t - kSpinNs);
  while (now_ns() < t) {
  }
}

struct Setup {
  apps::H264Workload w = apps::H264Workload::make(benchcore::Scale::Medium);
  std::vector<std::uint64_t> expected;
  double seq_ms_per_frame = 0.0;
  oss::Runtime rt;
  apps::H264DecService svc;

  explicit Setup(std::size_t threads)
      : rt(threads), svc(rt, oss::service::Config{kStreams, kWindow}) {
    const std::int64_t t0 = now_ns();
    expected = apps::h264dec_seq(w);
    seq_ms_per_frame = static_cast<double>(now_ns() - t0) * 1e-6 /
                       static_cast<double>(expected.size());
    // Warm-up: one clip through every stream, so pools and node-bound
    // buffers exist before timing starts.
    std::vector<apps::H264DecSessionPtr> warm;
    for (std::size_t s = 0; s < kStreams; ++s) {
      warm.push_back(svc.open("warm" + std::to_string(s), w));
    }
    for (const auto& f : w.video.frames) {
      for (auto& s : warm) {
        if (s && !s->submit(f, oss::service::Submit::Block)) break;
      }
    }
    for (auto& s : warm) {
      if (s) s->close();
    }
  }
};

/// Everything one open-loop or saturating phase measured.
struct Phase {
  std::vector<double> latency_ms; ///< due -> output, frames that came out
  std::vector<double> lag_ms;     ///< generator lateness per due frame
  std::vector<double> submit_us;  ///< admitted FailFast submits
  std::vector<double> open_us, close_us;
  std::uint64_t frames = 0;       ///< frames due (open loop) / submitted
  std::uint64_t output = 0;       ///< frames that came out, checksum ok
  std::uint64_t failed = 0;       ///< mismatches + never output + refusals
  std::uint64_t opens = 0;
  std::uint64_t attempts = 0, bounced = 0;
  std::size_t backlog_max = 0;
  std::int64_t start = 0, end = 0;
};

struct Submitted {
  std::int64_t due = 0;  ///< when the frame was due
  std::int64_t call = 0; ///< when submit() was called
  std::uint64_t span = 0;
};

/// One stream of the generator: its current session and its backlog.
struct Stream {
  std::size_t index = 0;
  std::string name;
  int clip_start = 0;         ///< seeded I-frame the sessions start from
  std::int64_t phase_ns = 0;  ///< offset of the first due frame
  apps::H264DecSessionPtr session;
  std::uint64_t open_span = 0;
  std::vector<Submitted> sent; ///< this session's admitted frames
  bool closing = false;        ///< session done submitting; close when drained
  std::int64_t drained_at = 0; ///< when the closing window was first seen empty
  std::int64_t next_due = 0;
  std::deque<Submitted> backlog; ///< due frames not yet admitted
};

class Generator {
 public:
  Generator(Setup& su, const Options& o, Tracer& tr) : su_(su), tr_(tr) {
    const int gop = 8; // H264Workload::make's I-frame period
    const int starts = static_cast<int>(su.w.video.frames.size()) / gop;
    const auto n = static_cast<std::int64_t>(kStreams);
    const std::int64_t session_ns = kPeriodNs * kLoops * clip_len();
    for (std::size_t s = 0; s < kStreams; ++s) {
      Stream& st = streams_[s];
      const auto i = static_cast<std::int64_t>(s);
      st.index = s;
      st.name = std::string("s").append(std::to_string(s));
      st.clip_start = gop * static_cast<int>(mix64(o.seed * 31 + s) % starts);
      // Sessions staggered by a quarter session, frames interleaved by a
      // quarter period, plus a seeded jitter small enough that every seed
      // sees the same interleaving.
      const auto jitter = static_cast<std::int64_t>(
          mix64(o.seed * 131 + s) % static_cast<std::uint64_t>(kPeriodNs / (2 * n)));
      st.phase_ns = i * session_ns / n + i * kPeriodNs / n + jitter;
    }
  }

  /// Fingerprint of the seeded stream parameters.
  [[nodiscard]] std::uint64_t inputs() const {
    std::uint64_t h = 0;
    for (const Stream& st : streams_) {
      h = mix64(h ^ static_cast<std::uint64_t>(st.clip_start));
      h = mix64(h ^ static_cast<std::uint64_t>(st.phase_ns));
    }
    return h;
  }

  /// Open-loop phase of `seconds`: frames due at kStreamFps per stream.
  Phase open_loop(double seconds) {
    Phase ph;
    ph.start = now_ns();
    const std::int64_t gen_end = ph.start + static_cast<std::int64_t>(seconds * 1e9);
    for (Stream& st : streams_) {
      st.next_due = ph.start + st.phase_ns;
      open(st, ph);
    }
    for (;;) {
      const std::int64_t now = now_ns();
      if (now > gen_end + kGiveUpNs) {
        // Frames still held back this long after the last was due will
        // never be output: count them and stop rather than wedge.
        for (Stream& st : streams_) {
          ph.failed += st.backlog.size();
          st.backlog.clear();
        }
        break;
      }
      bool busy = false;
      for (Stream& st : streams_) {
        while (st.next_due <= now && st.next_due < gen_end) {
          ph.lag_ms.push_back(static_cast<double>(now - st.next_due) * 1e-6);
          st.backlog.push_back({st.next_due, 0, tr_.reserve()});
          st.next_due += kPeriodNs;
          ++ph.frames;
        }
        ph.backlog_max = std::max(ph.backlog_max, st.backlog.size());
        pump(st, ph);
        busy = busy || !st.backlog.empty() || st.closing || !st.session;
      }
      std::int64_t next = INT64_MAX;
      for (const Stream& st : streams_) {
        if (st.next_due < gen_end) next = std::min(next, st.next_due);
      }
      if (next == INT64_MAX && !busy) break; // nothing due, nothing held back
      if (busy && now_ns() + kPollNs < next) {
        sleep_until_ns(now_ns() + kPollNs);
      } else {
        wait_until_ns(next);
      }
    }
    for (Stream& st : streams_) close(st, ph);
    ph.end = now_ns();
    return ph;
  }

  /// Saturating phase: every window kept full for `seconds`.
  Phase saturate(double seconds) {
    Phase ph;
    ph.start = now_ns();
    const std::int64_t end = ph.start + static_cast<std::int64_t>(seconds * 1e9);
    for (Stream& st : streams_) open(st, ph);
    while (now_ns() < end) {
      for (Stream& st : streams_) {
        for (;;) {
          if (st.backlog.empty()) {
            st.backlog.push_back({now_ns(), 0, 0});
            ++ph.frames;
          }
          if (!pump(st, ph)) break;
        }
      }
      sleep_until_ns(now_ns() + kPollNs / 4);
    }
    for (Stream& st : streams_) {
      ph.frames -= st.backlog.size(); // generated here, never due
      st.backlog.clear();
      close(st, ph);
    }
    ph.end = now_ns();
    return ph;
  }

 private:
  [[nodiscard]] int clip_len() const {
    return static_cast<int>(su_.w.video.frames.size());
  }

  void open(Stream& st, Phase& ph) {
    const std::int64_t t0 = now_ns();
    oss::service::Reject why = oss::service::Reject::None;
    st.session = su_.svc.open(st.name, su_.w, &why);
    const std::int64_t t1 = now_ns();
    ++ph.opens;
    if (!st.session) {
      ++ph.failed;
      std::fprintf(stderr, "perfbench: open refused (%s)\n",
                   oss::service::reject_name(why));
      return;
    }
    ph.open_us.push_back(static_cast<double>(t1 - t0) * 1e-3);
    st.open_span = tr_.record(SpanName::Open, 0, t0, t1, static_cast<std::uint32_t>(st.index));
    st.closing = false;
    st.drained_at = 0;
    st.sent.clear();
  }

  /// Closes the session and checks every frame it admitted.
  void close(Stream& st, Phase& ph) {
    if (!st.session) return;
    const std::int64_t t0 = now_ns();
    st.session->close();
    const std::int64_t t1 = now_ns();
    ph.close_us.push_back(static_cast<double>(t1 - t0) * 1e-3);
    tr_.record(SpanName::Close, st.open_span, t0, t1, static_cast<std::uint32_t>(st.index));
    const auto& sums = st.session->checksums();
    const auto& lat = st.session->latencies_ns();
    for (std::size_t k = 0; k < st.sent.size(); ++k) {
      const Submitted& f = st.sent[k];
      const std::size_t clip = (static_cast<std::size_t>(st.clip_start) + k) %
                               su_.expected.size();
      if (k >= sums.size() || k >= lat.size() || sums[k] != su_.expected[clip]) {
        ++ph.failed;
        tr_.fill(f.span, SpanName::Frame, st.open_span, f.due, f.due, static_cast<std::uint32_t>(k));
        continue;
      }
      const std::int64_t out = f.call + static_cast<std::int64_t>(lat[k]);
      ph.latency_ms.push_back(static_cast<double>(out - f.due) * 1e-6);
      ++ph.output;
      tr_.fill(f.span, SpanName::Frame, st.open_span, f.due, out, static_cast<std::uint32_t>(k));
    }
    st.session.reset();
  }

  /// Submits the stream's backlog until its window bounces.  Closes and
  /// reopens a finished session once its window has drained.  Returns true
  /// when at least one frame was admitted.
  bool pump(Stream& st, Phase& ph) {
    if (st.closing) {
      // Close only once the window has been empty for a poll interval, so
      // the last output task has retired and close() finds nothing to wait
      // for: a waiting generator would run other streams' decode tasks.
      const std::int64_t now = now_ns();
      if (st.session->window().in_flight() != 0) {
        st.drained_at = 0;
        return false;
      }
      if (st.drained_at == 0) st.drained_at = now;
      if (now - st.drained_at < kPollNs) return false;
      close(st, ph);
    }
    if (!st.session) open(st, ph);
    if (!st.session) return false;
    bool any = false;
    const auto limit = static_cast<std::size_t>(kLoops * clip_len());
    while (!st.backlog.empty() && !st.closing) {
      Submitted f = st.backlog.front();
      const std::size_t clip = (static_cast<std::size_t>(st.clip_start) + st.sent.size()) %
                               su_.w.video.frames.size();
      f.call = now_ns();
      const bool ok =
          st.session->submit(su_.w.video.frames[clip], oss::service::Submit::FailFast);
      const std::int64_t t1 = now_ns();
      ++ph.attempts;
      if (!ok) {
        ++ph.bounced;
        break;
      }
      ph.submit_us.push_back(static_cast<double>(t1 - f.call) * 1e-3);
      tr_.record(SpanName::Submit, f.span, f.call, t1, static_cast<std::uint32_t>(st.sent.size()));
      st.sent.push_back(f);
      st.backlog.pop_front();
      any = true;
      st.closing = st.sent.size() == limit;
    }
    return any;
  }

  Setup& su_;
  Tracer& tr_;
  Stream streams_[kStreams];
};

/// Share of the phase's due frames that came out later than kDeadlineMs or
/// never came out.
double deadline_miss_frac(const Phase& ph) {
  const auto late = static_cast<std::uint64_t>(
      std::count_if(ph.latency_ms.begin(), ph.latency_ms.end(),
                    [](double x) { return x > kDeadlineMs; }));
  return static_cast<double>(late + (ph.frames - ph.output)) /
         static_cast<double>(std::max<std::uint64_t>(1, ph.frames));
}

/// Runs one phase on a dedicated generator thread: not a runtime worker, so
/// it never picks up decode tasks while it waits on a session.
Phase on_generator(const std::function<Phase()>& phase) {
  Phase ph;
  std::exception_ptr err;
  std::thread gen([&] {
    try {
      ph = phase();
    } catch (...) {
      err = std::current_exception();
    }
  });
  gen.join();
  if (err) std::rethrow_exception(err);
  return ph;
}

} // namespace

Result run_decode_service(const Options& o) {
  Result r;
  std::vector<double> setup_s;
  std::unique_ptr<Setup> su;
  for (int s = 0; s < kSetups; ++s) {
    su.reset();
    const std::int64_t t0 = now_ns();
    su = std::make_unique<Setup>(o.threads);
    setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }
  Tracer tracer(o.trace ? kSpanCapacity : 0);
  Generator gen(*su, o, tracer);

  const auto account = [&](const Phase& ph) {
    r.attempted += ph.frames + ph.opens;
    r.failed += ph.failed;
  };
  const auto lag_check = [&](Phase& ph) {
    const double lag99 = percentile(ph.lag_ms, 99);
    if (lag99 > kMaxGenLagMs) {
      r.valid = false;
      r.invalid_reason = "open-loop generator ran late: p99 " + std::to_string(lag99) + " ms";
    }
    return lag99;
  };

  const double open_s = o.seconds * (o.trace ? 0.5 : kOpenLoopShare);
  Phase ol = on_generator([&] { return gen.open_loop(open_s); });
  account(ol);
  const double lag99 = lag_check(ol);
  std::vector<double> lat = ol.latency_ms;
  const double p50 = percentile(lat, 50);

  char line[256];
  if (!o.trace) {
    Phase sat = on_generator([&] { return gen.saturate(o.seconds - open_s); });
    account(sat);
    const double fps = static_cast<double>(sat.output) /
                       (static_cast<double>(sat.end - sat.start) * 1e-9);
    // The gated latency is the saturated phase's submit-to-output median:
    // the open-loop figures swing by a quarter between runs on a shared
    // host (a parked worker's wakeup waits for a CPU), wider than any bound.
    const double sat_p50 = median(sat.latency_ms);
    r.e2e("setup_s", median(setup_s), "s");
    r.e2e("latency_ms", sat_p50, "ms");
    r.e2e("throughput_per_s", fps, "1/s");
    std::snprintf(line, sizeof line,
                  "open loop: frame_p50_ms=%.3f frame_p90_ms=%.3f frame_p99_ms=%.3f "
                  "samples=%zu deadline_miss_frac=%.5f (limit %.0f ms) gen_lag_p99_ms=%.3f",
                  p50, percentile(lat, 90), percentile(lat, 99), ol.latency_ms.size(),
                  deadline_miss_frac(ol), kDeadlineMs, lag99);
    r.report.emplace_back(line);
    std::snprintf(line, sizeof line,
                  "saturated: frames_per_s=%.2f frame_p50_ms=%.3f samples=%zu", fps, sat_p50,
                  sat.latency_ms.size());
    r.report.emplace_back(line);
  } else {
    // The paper's Table 1 cell for its case-study app, on the same clip:
    // one seq, pthreads(nproc) and OmpSs(nproc) decode, each checked.
    tracer.start();
    const auto reference = [&](SpanName name, const auto& decode) {
      const std::int64_t t0 = now_ns();
      const bool ok = decode() == su->expected;
      const std::int64_t t1 = now_ns();
      tracer.record(name, 0, t0, t1);
      ++r.attempted;
      if (!ok) ++r.failed;
      return static_cast<double>(t1 - t0) * 1e-6;
    };
    const double seq_ms = reference(SpanName::AppSeq, [&] { return apps::h264dec_seq(su->w); });
    const double pth_ms = reference(SpanName::AppPthreads,
                                    [&] { return apps::h264dec_pthreads(su->w, o.threads); });
    const double omp_ms = reference(SpanName::AppOmpss,
                                    [&] { return apps::h264dec_ompss(su->w, o.threads); });
    r.layer("apps.h264dec.seq_ms", seq_ms, "ms");
    r.layer("apps.h264dec.pthreads_ms", pth_ms, "ms");
    r.layer("apps.h264dec.ompss_ms", omp_ms, "ms");
    r.layer("apps.table1_speedup", pth_ms / omp_ms, "ratio");

    // Traced half: the same open loop again with spans on.
    const oss::StatsSnapshot before = su->rt.stats();
    Phase tp = on_generator([&] { return gen.open_loop(o.seconds - open_s); });
    tracer.stop();
    const oss::StatsSnapshot after = su->rt.stats();
    account(tp);
    const double tlag99 = lag_check(tp);
    std::vector<double> tlat = tp.latency_ms;
    add_stats_layers(r, before, after);
    r.layer("service.tasks_per_frame",
            static_cast<double>(after.tasks_executed - before.tasks_executed) /
                static_cast<double>(std::max<std::uint64_t>(1, tp.output)),
            "1/frame");
    r.layer("service.open_us", median(tp.open_us), "us");
    r.layer("service.close_us", median(tp.close_us), "us");
    r.layer("service.submit_us.p50", percentile(tp.submit_us, 50), "us");
    r.layer("service.submit_us.p99", percentile(tp.submit_us, 99), "us");
    r.layer("service.window_full_frac",
            static_cast<double>(tp.bounced) /
                static_cast<double>(std::max<std::uint64_t>(1, tp.attempts)),
            "frac");
    r.layer("service.backlog_max", static_cast<double>(tp.backlog_max), "count");
    r.layer("service.deadline_miss_frac", deadline_miss_frac(tp), "frac");
    r.layer("service.frame_p50_ms", percentile(tlat, 50), "ms");
    r.layer("service.frame_p99_ms", percentile(tlat, 99), "ms");
    r.layer("service.frame_samples", static_cast<double>(tp.latency_ms.size()), "count");
    r.layer("gen.lag_p99_ms", tlag99, "ms");
    r.layer("trace_overhead_frac", (percentile(tlat, 50) - p50) / p50, "frac");
    if (!o.trace_path.empty() && !tracer.write(o.trace_path)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", o.trace_path.c_str());
    }
  }
  r.layer("apps.seq_ms", su->seq_ms_per_frame, "ms");

  std::snprintf(line, sizeof line, "inputs=%016llx",
                static_cast<unsigned long long>(gen.inputs()));
  r.report.emplace_back(line);
  return r;
}

} // namespace perfbench
