// oss::service + H264DecService: admission control, per-stream
// backpressure (block vs fail-fast), mid-stream close/drain hygiene,
// per-stream checksum parity with the sequential decoder under concurrent
// streams, and the executor slot-0 loan a Service takes on the owning
// thread.  This binary also runs in the env matrix (run_matrix.sh phase 2)
// across scheduler × dep-shard × pool combinations.
#include "apps/h264dec/h264dec_service.hpp"
#include "service/service.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <future>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

namespace {

using oss::service::Config;
using oss::service::Reject;
using oss::service::Service;
using oss::service::StreamPtr;
using oss::service::Submit;
using oss::service::Window;

oss::RuntimeConfig rt_config(std::size_t threads = 4) {
  oss::RuntimeConfig cfg = oss::RuntimeConfig::from_env();
  cfg.num_threads = threads;
  return cfg;
}

/// Sets an env var for the scope (mirrors tests/ompss/test_config.cpp).
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    if (old) saved_ = old;
    had_ = old != nullptr;
    ::setenv(name, value, 1);
  }
  ~ScopedEnv() {
    if (had_) {
      ::setenv(name_.c_str(), saved_.c_str(), 1);
    } else {
      ::unsetenv(name_.c_str());
    }
  }

 private:
  std::string name_, saved_;
  bool had_ = false;
};

// --- admission ---------------------------------------------------------------

TEST(Service, AdmissionRejectsAtCapacityAndRecoversOnClose) {
  oss::Runtime rt(rt_config());
  Config cfg;
  cfg.max_streams = 2;
  Service svc(rt, cfg);

  Reject why = Reject::None;
  StreamPtr a = svc.open("a", &why);
  ASSERT_TRUE(a);
  EXPECT_EQ(why, Reject::None);
  StreamPtr b = svc.open("b");
  ASSERT_TRUE(b);

  StreamPtr c = svc.open("c", &why);
  EXPECT_FALSE(c);
  EXPECT_EQ(why, Reject::Capacity);
  EXPECT_STREQ(oss::service::reject_name(why), "capacity");

  // Closing a stream frees its admission slot.
  a->close();
  EXPECT_FALSE(a->open());
  c = svc.open("c", &why);
  ASSERT_TRUE(c);
  EXPECT_EQ(why, Reject::None);

  const Service::Stats s = svc.stats();
  EXPECT_EQ(s.opened, 3u);
  EXPECT_EQ(s.closed, 1u);
  EXPECT_EQ(s.rejected_capacity, 1u);
  EXPECT_EQ(s.active, 2u);
}

TEST(Service, OpenAfterServiceCloseIsRejected) {
  oss::Runtime rt(rt_config());
  Service svc(rt, Config{});
  StreamPtr a = svc.open("a");
  ASSERT_TRUE(a);
  svc.close();
  EXPECT_FALSE(a->open()); // service close drains its streams

  Reject why = Reject::None;
  EXPECT_FALSE(svc.open("late", &why));
  EXPECT_EQ(why, Reject::Closed);
  EXPECT_EQ(svc.stats().rejected_closed, 1u);
}

// --- backpressure ------------------------------------------------------------

/// A latch the test holds shut while window slots are occupied.
struct Gate {
  std::mutex mu;
  std::condition_variable cv;
  bool open = false;
  void release() {
    {
      std::lock_guard lock(mu);
      open = true;
    }
    cv.notify_all();
  }
  void wait() {
    std::unique_lock lock(mu);
    cv.wait(lock, [this] { return open; });
  }
};

TEST(Service, WindowFailFastBouncesWhenFull) {
  oss::Runtime rt(rt_config());
  Config cfg;
  cfg.window = 2;
  Service svc(rt, cfg);
  StreamPtr s = svc.open("bp");
  ASSERT_TRUE(s);

  Gate gate;
  // Fill the window with units whose final task releases on completion.
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(s->window().acquire(Submit::FailFast));
    s->task("unit").spawn([&gate, s] {
      gate.wait();
      s->window().release();
    });
  }
  EXPECT_EQ(s->window().in_flight(), 2u);
  EXPECT_FALSE(s->window().acquire(Submit::FailFast)); // full → bounce
  EXPECT_EQ(s->window().rejected(), 1u);

  gate.release();
  s->drain();
  EXPECT_EQ(s->window().in_flight(), 0u);
  EXPECT_TRUE(s->window().acquire(Submit::FailFast)); // slots free again
  s->window().release();
  EXPECT_EQ(s->window().peak(), 2u); // never exceeded the bound
}

TEST(Service, WindowBlockWaitsForAFreedSlot) {
  oss::Runtime rt(rt_config());
  Config cfg;
  cfg.window = 1;
  Service svc(rt, cfg);
  StreamPtr s = svc.open("bp");
  ASSERT_TRUE(s);

  Gate gate;
  ASSERT_TRUE(s->window().acquire(Submit::Block));
  s->task("unit").spawn([&gate, s] {
    gate.wait();
    s->window().release();
  });

  std::atomic<bool> acquired{false};
  std::thread submitter([&] {
    // Blocks until the in-flight unit releases.
    ASSERT_TRUE(s->window().acquire(Submit::Block));
    acquired.store(true);
    s->window().release();
  });
  // The submitter must be parked, not bounced.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(acquired.load());

  gate.release();
  submitter.join();
  EXPECT_TRUE(acquired.load());
  EXPECT_GE(s->window().blocked(), 1u);
  s->drain();
}

TEST(Service, CloseFailsBlockedSubmitters) {
  oss::Runtime rt(rt_config());
  Config cfg;
  cfg.window = 1;
  Service svc(rt, cfg);
  StreamPtr s = svc.open("bp");
  ASSERT_TRUE(s);

  Gate gate;
  ASSERT_TRUE(s->window().acquire(Submit::Block));
  s->task("unit").spawn([&gate, s] {
    gate.wait();
    s->window().release();
  });

  std::atomic<int> result{-1};
  std::thread submitter(
      [&] { result.store(s->window().acquire(Submit::Block) ? 1 : 0); });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(result.load(), -1); // parked on the full window

  // close() must first unblock the submitter (with failure), then drain the
  // admitted unit — which is still gated, so release the gate from here.
  std::thread closer([&] { s->close(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  gate.release();
  closer.join();
  submitter.join();
  EXPECT_EQ(result.load(), 0);
  EXPECT_FALSE(s->open());
  EXPECT_FALSE(s->window().acquire(Submit::Block)); // closed stays closed
}

// --- decode sessions ---------------------------------------------------------

TEST(H264DecService, ChecksumParityWithSequentialDecoder) {
  const auto w = apps::H264Workload::make(benchcore::Scale::Tiny);
  const auto expected = apps::h264dec_seq(w);

  oss::Runtime rt(rt_config());
  apps::H264DecService svc(rt, Config{});
  auto session = svc.open("s0", w);
  ASSERT_TRUE(session);
  for (const auto& frame : w.video.frames) {
    ASSERT_TRUE(session->submit(frame));
  }
  session->finish();
  EXPECT_EQ(session->checksums(), expected);
  ASSERT_EQ(session->latencies_ns().size(), expected.size());
  for (std::uint64_t ns : session->latencies_ns()) EXPECT_GT(ns, 0u);
  EXPECT_LE(session->window().peak(), session->window().depth());
  session->close();
}

TEST(H264DecService, ConcurrentStreamsDecodeIndependently) {
  const auto w = apps::H264Workload::make(benchcore::Scale::Tiny);
  const auto expected = apps::h264dec_seq(w);
  constexpr int kStreams = 4;

  oss::Runtime rt(rt_config());
  Config cfg;
  cfg.max_streams = kStreams;
  cfg.window = 3;
  apps::H264DecService svc(rt, cfg);

  std::vector<apps::H264DecSessionPtr> sessions;
  for (int i = 0; i < kStreams; ++i) {
    auto s = svc.open("s" + std::to_string(i), w);
    ASSERT_TRUE(s);
    sessions.push_back(std::move(s));
  }

  // One submitter thread per stream, all pumping concurrently with the
  // Block policy (backpressure engaged: window 3 < frame count).
  std::vector<std::thread> submitters;
  submitters.reserve(kStreams);
  for (auto& s : sessions) {
    submitters.emplace_back([&s, &w] {
      for (int rep = 0; rep < 2; ++rep) {
        for (const auto& frame : w.video.frames) {
          ASSERT_TRUE(s->submit(frame, Submit::Block));
        }
      }
      s->finish();
    });
  }
  for (auto& t : submitters) t.join();

  for (auto& s : sessions) {
    ASSERT_EQ(s->checksums().size(), 2 * expected.size());
    for (std::size_t i = 0; i < s->checksums().size(); ++i) {
      // Frame 0 of rep 2 is decoded as a P/I frame per its own header, so
      // repeating the whole GOP-aligned stream repeats the checksums.
      EXPECT_EQ(s->checksums()[i], expected[i % expected.size()]) << i;
    }
    EXPECT_LE(s->window().peak(), s->window().depth());
    s->close();
  }
  rt.barrier();
  EXPECT_EQ(rt.pending_tasks(), 0u);
}

TEST(H264DecService, MidStreamCloseDrainsWithoutLeaks) {
  const auto w = apps::H264Workload::make(benchcore::Scale::Tiny);
  const auto expected = apps::h264dec_seq(w);

  oss::Runtime rt(rt_config());
  Config cfg;
  cfg.window = 2;
  apps::H264DecService svc(rt, cfg);
  auto session = svc.open("s0", w);
  ASSERT_TRUE(session);

  const std::size_t submitted = w.video.frames.size() / 2;
  for (std::size_t i = 0; i < submitted; ++i) {
    ASSERT_TRUE(session->submit(w.video.frames[i]));
  }
  session->close(); // drain, not cancel: admitted frames complete

  ASSERT_EQ(session->checksums().size(), submitted);
  for (std::size_t i = 0; i < submitted; ++i) {
    EXPECT_EQ(session->checksums()[i], expected[i]) << i;
  }
  EXPECT_FALSE(session->submit(w.video.frames[0])); // closed window bounces

  rt.barrier();
  EXPECT_EQ(rt.pending_tasks(), 0u);
  const oss::StatsSnapshot stats = rt.stats();
  EXPECT_EQ(stats.tasks_spawned, stats.tasks_executed); // nothing leaked
}

TEST(H264DecService, SessionsAreRejectedAtCapacity) {
  const auto w = apps::H264Workload::make(benchcore::Scale::Tiny);
  oss::Runtime rt(rt_config());
  Config cfg;
  cfg.max_streams = 1;
  apps::H264DecService svc(rt, cfg);

  auto a = svc.open("a", w);
  ASSERT_TRUE(a);
  Reject why = Reject::None;
  EXPECT_FALSE(svc.open("b", w, &why));
  EXPECT_EQ(why, Reject::Capacity);
  a->close();
  EXPECT_TRUE(svc.open("b", w, &why));
}

// --- executor slot 0 loan ----------------------------------------------------

/// Where a task ran: its thread and Runtime::current_worker() inside it.
struct RanOn {
  std::thread::id thread;
  int worker = -2;
};

/// Spawns one task from the calling thread and waits for it *outside* the
/// runtime (a plain sleep loop, like an owner blocked in join), so only an
/// executor slot can run it.
RanOn run_one_unhelped(oss::Runtime& rt) {
  RanOn on;
  std::atomic<bool> done{false};
  rt.task("probe").spawn([&] {
    on = {std::this_thread::get_id(), oss::Runtime::current_worker()};
    done.store(true, std::memory_order_release);
  });
  while (!done.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  rt.taskwait();
  return on;
}

// Regression: with one executor, a Service whose frames come from a foreign
// thread while the owning thread waits in join used to hang (the only slot
// was the joining owner).  The wait is bounded: on timeout the test fails
// and the owner drains the runtime itself so the submitter can finish.
TEST(H264DecService, ForeignSubmitterDecodesWhileOwnerJoinsOnOneExecutor) {
  const auto w = apps::H264Workload::make(benchcore::Scale::Tiny);
  const auto expected = apps::h264dec_seq(w);

  oss::Runtime rt(rt_config(1));
  Config cfg;
  cfg.window = 2;
  apps::H264DecService svc(rt, cfg);
  auto session = svc.open("s0", w);
  ASSERT_TRUE(session);

  std::promise<void> finished;
  std::future<void> done = finished.get_future();
  std::atomic<bool> all_admitted{true};
  std::thread submitter([&] {
    for (const auto& frame : w.video.frames) {
      if (!session->submit(frame, Submit::Block)) all_admitted.store(false);
    }
    session->finish();
    finished.set_value();
  });
  if (done.wait_for(std::chrono::seconds(20)) != std::future_status::ready) {
    ADD_FAILURE() << "no executor ran the foreign thread's frames in 20 s";
    while (done.wait_for(std::chrono::milliseconds(1)) !=
           std::future_status::ready) {
      rt.barrier();
    }
  }
  submitter.join();
  EXPECT_TRUE(all_admitted.load());
  EXPECT_EQ(session->checksums(), expected);
  EXPECT_LE(session->window().peak(), 2u);
  session->close();
}

TEST(ServiceSlotLoan, StandInRunsSlotZeroUntilTheServiceIsDestroyed) {
  oss::Runtime rt(rt_config(1));
  const std::thread::id owner = std::this_thread::get_id();
  ASSERT_EQ(oss::Runtime::current(), &rt);
  ASSERT_EQ(oss::Runtime::current_worker(), 0);
  {
    Service svc(rt, Config{});
    // The owner is a foreign thread while the slot is lent...
    EXPECT_EQ(oss::Runtime::current(), nullptr);
    EXPECT_EQ(oss::Runtime::current_worker(), -1);
    // ...and slot 0 runs on another thread while the owner waits elsewhere.
    const RanOn on = run_one_unhelped(rt);
    EXPECT_NE(on.thread, owner);
    EXPECT_EQ(on.worker, 0);
    EXPECT_GE(rt.stats().per_worker_executed.at(0), 1u);
  }
  EXPECT_EQ(oss::Runtime::current(), &rt);
  EXPECT_EQ(oss::Runtime::current_worker(), 0);
  // Back as worker 0, the owner runs its own task when it waits.
  std::thread::id ran;
  rt.task("after").spawn([&] { ran = std::this_thread::get_id(); });
  rt.taskwait();
  EXPECT_EQ(ran, owner);
}

TEST(ServiceSlotLoan, ReplayedChainRunsInlineAgainAfterReclaim) {
  oss::RuntimeConfig cfg = rt_config(4);
  if (cfg.scheduler == oss::SchedulerPolicy::Fifo) {
    GTEST_SKIP() << "fifo never keeps a released successor";
  }
  constexpr std::size_t kLinks = 2000;
  oss::Runtime rt(cfg);
  std::uint64_t token = 0;
  std::atomic<std::size_t> done{0};
  const auto body = [&](std::size_t i) -> oss::Task::Fn {
    return [&token, &done, i] {
      token = token * 3 + i;
      done.fetch_add(1, std::memory_order_relaxed);
    };
  };
  oss::ReplayGraph graph;
  {
    oss::GraphCapture cap(rt);
    for (std::size_t i = 0; i < kLinks; ++i) {
      rt.task("link").inout(token).spawn(body(i));
    }
    graph = cap.finish();
    rt.taskwait();
  }
  {
    Service svc(rt, Config{});
    // Lent: the owner is a non-worker thread, so replay() only submits.
    rt.replay(graph, body);
    rt.taskwait();
    EXPECT_EQ(done.load(), 2 * kLinks);
  }
  done.store(0);
  const oss::StatsSnapshot before = rt.stats();
  rt.replay(graph, body);
  // Worker 0 again: the whole chain ran inside replay(), unpublished.
  EXPECT_EQ(done.load(), kLinks);
  rt.taskwait();
  const oss::StatsSnapshot after = rt.stats();
  EXPECT_EQ(after.local_pops - before.local_pops, kLinks);
  EXPECT_EQ(after.wakeups - before.wakeups, 0u);
  std::uint64_t want = 0;
  for (int it = 0; it < 3; ++it) {
    for (std::size_t i = 0; i < kLinks; ++i) want = want * 3 + i;
  }
  EXPECT_EQ(token, want);
}

TEST(ServiceSlotLoan, TwoServicesShareOneStandIn) {
  oss::Runtime rt(rt_config(1));
  std::optional<Service> a(std::in_place, rt, Config{});
  const RanOn first = run_one_unhelped(rt);
  {
    Service b(rt, Config{});
    const RanOn second = run_one_unhelped(rt);
    EXPECT_EQ(second.thread, first.thread);
    EXPECT_EQ(second.worker, 0);
  }
  // One loan is still out: the stand-in keeps the slot.
  EXPECT_EQ(oss::Runtime::current_worker(), -1);
  EXPECT_EQ(run_one_unhelped(rt).thread, first.thread);
  a.reset();
  EXPECT_EQ(oss::Runtime::current(), &rt);
  EXPECT_EQ(oss::Runtime::current_worker(), 0);
}

TEST(ServiceSlotLoan, ServiceDestroyedOnForeignThreadLetsRuntimeDie) {
  {
    oss::Runtime rt(rt_config(1));
    auto svc = std::make_unique<Service>(rt, Config{});
    std::thread([&] { svc.reset(); }).join();
    // Not reclaimed off the owning thread: the stand-in still serves, and
    // the destructor below joins it.
    EXPECT_EQ(oss::Runtime::current(), nullptr);
    EXPECT_EQ(run_one_unhelped(rt).worker, 0);
  }
  EXPECT_EQ(oss::Runtime::current(), nullptr);

  // A later Service on the owning thread joins the running stand-in, and
  // its destruction there hands the slot back.
  oss::Runtime rt(rt_config(2));
  auto svc = std::make_unique<Service>(rt, Config{});
  std::thread([&] { svc.reset(); }).join();
  { Service again(rt, Config{}); }
  EXPECT_EQ(oss::Runtime::current(), &rt);
  EXPECT_EQ(oss::Runtime::current_worker(), 0);
}

TEST(ServiceSlotLoan, ServiceInsideTaskOrOnForeignThreadLendsNothing) {
  oss::Runtime rt(rt_config(2));
  std::atomic<int> lent{0};
  std::atomic<int> worker_inside{-2};
  rt.task("nested").spawn([&] {
    if (rt.lend_slot0()) lent.fetch_add(1);
    Service inner(rt, Config{});
    worker_inside.store(oss::Runtime::current_worker());
  });
  rt.taskwait();
  EXPECT_GE(worker_inside.load(), 0); // still the executor that ran it
  std::thread([&] {
    if (rt.lend_slot0()) lent.fetch_add(1);
    Service outside(rt, Config{});
    StreamPtr s = outside.open("foreign");
    ASSERT_TRUE(s);
    int v = 0;
    s->task("work").spawn([&v] { v = 9; });
    s->drain();
    EXPECT_EQ(v, 9);
  }).join();
  EXPECT_EQ(lent.load(), 0);
  EXPECT_EQ(oss::Runtime::current(), &rt);
  EXPECT_EQ(oss::Runtime::current_worker(), 0);
}

TEST(ServiceSlotLoan, TraceRowsFollowTheSlot) {
  oss::RuntimeConfig cfg = rt_config(1);
  cfg.trace_mode = oss::TraceMode::Full;
  oss::Runtime rt(cfg);
  std::uint64_t lent = 0;
  {
    Service svc(rt, Config{});
    std::atomic<bool> done{false};
    lent = rt.task("lent").spawn([&done] { done.store(true); }).id();
    while (!done.load()) std::this_thread::yield();
    rt.taskwait();
  }
  const std::uint64_t back = rt.task("back").spawn([] {}).id();
  rt.taskwait();
  oss::TraceSystem* trace = rt.trace_system();
  ASSERT_NE(trace, nullptr);
  int checked = 0;
  for (const auto& m : trace->merged_events()) {
    const bool spawn = m.ev.kind == oss::TraceEventKind::Spawn;
    const bool run = m.ev.kind == oss::TraceEventKind::RunSpan;
    if (m.ev.task == lent && spawn) {
      // The lending owner emits on a spawner row of its own...
      EXPECT_GE(m.tid, oss::TraceSystem::kForeignBase);
      ++checked;
    } else if (m.ev.task == lent && run) {
      EXPECT_EQ(m.tid, 0); // ...while the stand-in runs slot 0.
      ++checked;
    } else if (m.ev.task == back && (spawn || run)) {
      EXPECT_EQ(m.tid, 0); // the owner is worker 0 again
      ++checked;
    }
  }
  EXPECT_EQ(checked, 4);
}

TEST(ServiceSlotLoan, InOutProgramFromLendingOwnerMatchesSerial) {
  constexpr std::size_t kCells = 16;
  constexpr std::size_t kTasks = 600;
  // Task i reads cell a, writes cell b and updates cell c.
  struct Op {
    std::size_t a, b, c;
  };
  std::vector<Op> ops;
  std::uint64_t seed = 20;
  const auto next = [&seed] {
    seed = seed * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<std::size_t>(seed >> 33) % kCells;
  };
  for (std::size_t i = 0; i < kTasks; ++i) ops.push_back({next(), next(), next()});
  const auto apply = [](const Op& op, std::size_t i, std::uint64_t* cell) {
    const std::uint64_t in = cell[op.a];
    cell[op.b] = in * 31 + i;
    cell[op.c] = cell[op.c] * 7 + (in ^ i);
  };
  std::uint64_t serial[kCells] = {};
  for (std::size_t i = 0; i < kTasks; ++i) apply(ops[i], i, serial);

  oss::Runtime rt(rt_config(4));
  Service svc(rt, Config{});
  ASSERT_EQ(oss::Runtime::current_worker(), -1);
  for (int round = 0; round < 3; ++round) {
    std::uint64_t cell[kCells] = {};
    for (std::size_t i = 0; i < kTasks; ++i) {
      const Op op = ops[i];
      // One declaration per distinct cell: read-only a is in, write-only b
      // is out, anything else (c, or a cell named twice) is inout.
      auto t = rt.task("op");
      if (op.a != op.b && op.a != op.c) t.in(cell[op.a]);
      if (op.b != op.a && op.b != op.c) t.out(cell[op.b]);
      t.inout(cell[op.c]);
      if (op.a == op.b && op.a != op.c) t.inout(cell[op.a]);
      t.spawn([&cell, op, i, &apply] { apply(op, i, cell); });
    }
    rt.taskwait();
    for (std::size_t k = 0; k < kCells; ++k) {
      EXPECT_EQ(cell[k], serial[k]) << "round " << round << " cell " << k;
    }
  }
}

// --- knobs -------------------------------------------------------------------

TEST(ServiceConfig, FromEnvReadsAndValidatesKnobs) {
  {
    ScopedEnv ms("OSS_SERVICE_MAX_STREAMS", "7");
    ScopedEnv wi("OSS_SERVICE_WINDOW", "5");
    const Config c = Config::from_env();
    EXPECT_EQ(c.max_streams, 7u);
    EXPECT_EQ(c.window, 5u);
  }
  // The OSS_SERVICE_* family uses the same strict integer parsing as every
  // other OSS_* knob: negatives must throw, not wrap through strtoull.
  for (const char* bad : {"-1", "+1", " 3", "3 ", "zz", ""}) {
    ScopedEnv ms("OSS_SERVICE_MAX_STREAMS", bad);
    EXPECT_THROW((void)Config::from_env(), std::invalid_argument)
        << "value '" << bad << "'";
  }
  {
    ScopedEnv wi("OSS_SERVICE_WINDOW", "-9");
    EXPECT_THROW((void)Config::from_env(), std::invalid_argument);
  }
  {
    // 0 would deadlock every submit; clamped to 1.
    ScopedEnv ms("OSS_SERVICE_MAX_STREAMS", "0");
    ScopedEnv wi("OSS_SERVICE_WINDOW", "0");
    const Config c = Config::from_env();
    EXPECT_EQ(c.max_streams, 1u);
    EXPECT_EQ(c.window, 1u);
  }
}

} // namespace
