#include "ompss/runtime.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#include <csignal>
#endif

#include "ompss/numa_alloc.hpp"
#include "ompss/pinning.hpp"
#include "ompss/replay.hpp"
#include "ompss/task_pool.hpp"

namespace oss {

namespace {
/// Runtime construction serial (Runtime::serial_): lets a ReplayGraph
/// reject replay against any runtime other than the live instance that
/// captured it, including a restart reusing the same address.
std::atomic<std::uint64_t> g_runtime_serial{0};
} // namespace

// ---------------------------------------------------------------------------
// Thread-local binding: which runtime/worker/task the current thread is in.
// Saved and restored around nested scopes so tests may create runtimes
// inside tasks of other runtimes.
// ---------------------------------------------------------------------------

struct Runtime::ThreadBinding {
  Runtime* rt = nullptr;
  int worker = -1;
  Task* current_task = nullptr;
};

namespace {
thread_local Runtime::ThreadBinding tl_binding;

/// RAII loan of a per-thread scratch std::vector<TaskPtr> — the successor
/// and newly-ready lists in on_finished() used to be fresh vectors per
/// retirement, i.e. one or two heap allocations per task.  A small
/// free-stack (not a single slot) because retirement can nest: a polling
/// taskwait inside a task body executes further tasks, whose on_finished
/// needs its own scratch while the outer one is live.
class ScratchTaskVec {
 public:
  ScratchTaskVec() {
    auto& s = stack();
    if (!s.free.empty()) {
      v_ = s.free.back();
      s.free.pop_back();
    } else {
      v_ = new std::vector<TaskPtr>();
    }
  }
  ~ScratchTaskVec() {
    v_->clear();
    auto& s = stack();
    if (s.free.size() < kMaxCached) {
      s.free.push_back(v_);
    } else {
      delete v_;
    }
  }
  ScratchTaskVec(const ScratchTaskVec&) = delete;
  ScratchTaskVec& operator=(const ScratchTaskVec&) = delete;

  std::vector<TaskPtr>& get() noexcept { return *v_; }

 private:
  static constexpr std::size_t kMaxCached = 8;
  struct Stack {
    std::vector<std::vector<TaskPtr>*> free;
    ~Stack() {
      for (auto* p : free) delete p;
    }
  };
  static Stack& stack() {
    thread_local Stack s;
    return s;
  }
  std::vector<TaskPtr>* v_;
};

#if defined(__unix__) || defined(__APPLE__)
// SIGUSR1 → health dump (OSS_WATCHDOG).  The handler only sets a flag; the
// collector thread polls it and does the actual (non-async-signal-safe)
// dump.  Installation is refcounted so overlapping watchdog runtimes share
// the handler and the last destructor restores whatever was there before.
std::atomic<bool> g_sigusr1{false};
std::mutex g_sigusr1_mu;
int g_sigusr1_users = 0;
struct sigaction g_sigusr1_prev;

void sigusr1_handler(int) { g_sigusr1.store(true, std::memory_order_relaxed); }

void install_sigusr1() {
  std::lock_guard lock(g_sigusr1_mu);
  if (++g_sigusr1_users > 1) return;
  // A signal delivered to a previous watchdog runtime but never consumed
  // (destroyed before its collector's next poll) must not fire a spurious
  // dump in this generation.
  g_sigusr1.store(false, std::memory_order_relaxed);
  struct sigaction sa {};
  sa.sa_handler = &sigusr1_handler;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = SA_RESTART;
  sigaction(SIGUSR1, &sa, &g_sigusr1_prev);
}

void uninstall_sigusr1() {
  std::lock_guard lock(g_sigusr1_mu);
  if (--g_sigusr1_users > 0) return;
  sigaction(SIGUSR1, &g_sigusr1_prev, nullptr);
}

bool take_sigusr1() { return g_sigusr1.exchange(false, std::memory_order_relaxed); }
#else
void install_sigusr1() {}
void uninstall_sigusr1() {}
bool take_sigusr1() { return false; }
#endif
} // namespace

Runtime* Runtime::current() noexcept { return tl_binding.rt; }
int Runtime::current_worker() noexcept { return tl_binding.worker; }

// ---------------------------------------------------------------------------
// Construction / destruction
// ---------------------------------------------------------------------------

Runtime::Runtime(RuntimeConfig cfg)
    : cfg_(cfg),
      num_threads_(cfg.resolved_threads()),
      root_ctx_(std::make_shared<TaskContext>(cfg.dep_shards)),
      topo_(cfg.resolved_topology()),
      scheduler_(Scheduler::create(cfg.scheduler, num_threads_,
                                   cfg.steal_tries, topo_, cfg.numa,
                                   cfg.pressure)),
      stats_(num_threads_) {
  serial_ = g_runtime_serial.fetch_add(1, std::memory_order_relaxed) + 1;
  pool_overflow_base_ = pool::overflow_total();
  // Built once, not per spawn: the sink is the same closure for the life
  // of the runtime and EdgeSink is a std::function (capture copy + possible
  // heap box on every construction).
  edge_sink_ = [this](const TaskPtr& from, const TaskPtr& to, DepKind kind) {
    switch (kind) {
      case DepKind::Raw: stats_.on_edge_raw(); break;
      case DepKind::War: stats_.on_edge_war(); break;
      case DepKind::Waw: stats_.on_edge_waw(); break;
      case DepKind::Explicit: stats_.on_edge_explicit(); break;
    }
    if (graph_) graph_->add_edge(from->id(), to->id(), kind);
    // Capture hook: edges discovered while a GraphCapture scope is open
    // are recorded into the scope (registration runs on the capturing
    // thread, so the relaxed load observes the scope it opened itself).
    if (GraphCapture* cap = capture_.load(std::memory_order_relaxed)) {
      cap->on_edge(from, to, kind);
    }
  };
  if (cfg_.record_graph) graph_ = std::make_unique<GraphRecorder>();
  if (cfg_.resolved_trace_mode() != TraceMode::Off) {
    trace_ = std::make_unique<TraceSystem>(cfg_.resolved_trace_mode(),
                                           cfg_.trace_buffer);
    trace_->bind_worker(0);
    // Wired before the pool threads exist, so the very first enqueue any
    // worker performs already traces.
    scheduler_->set_trace(trace_.get());
    trace_out_ = cfg_.trace_out;
  }
  if (cfg_.prof || cfg_.prof_every_ms > 0 || cfg_.watchdog_ms > 0) {
    prof_ = std::make_unique<ProfSystem>(num_threads_);
    run_slots_.reset(new RunSlot[num_threads_]);
  }
  // Critical-path propagation is shared by the profiler and the graph
  // recorder (DOT critical-path coloring); trace-only runs skip it.
  path_track_ = prof_ != nullptr || graph_ != nullptr;

  // One idle gate per NUMA node so home-node enqueues wake same-node
  // parked workers (node-aware wakeup); single-node topologies get exactly
  // one gate — the pre-NUMA behaviour.
  const std::size_t gates =
      (cfg_.numa != NumaMode::Off && !topo_.single_node()) ? topo_.num_nodes()
                                                           : 1;
  idle_gates_.reserve(gates);
  for (std::size_t g = 0; g < gates; ++g) {
    idle_gates_.push_back(std::make_unique<EventCount>());
  }

  // The constructing thread becomes worker 0 (it executes tasks whenever
  // it waits) until it lends the slot (lend_slot0).
  tl_binding = ThreadBinding{this, 0, nullptr};
  owner_tid_ = std::this_thread::get_id();

  workers_.reserve(num_threads_ - 1);
  for (std::size_t i = 1; i < num_threads_; ++i) {
    workers_.emplace_back(
        [this, i] { worker_loop(static_cast<int>(i), stop_); });
  }

  if (cfg_.resolved_pin_mode() != PinMode::Off) apply_pinning();

  if (cfg_.watchdog_ms > 0) install_sigusr1();

  if (cfg_.stats_every_ms > 0 || cfg_.prof_every_ms > 0 ||
      cfg_.watchdog_ms > 0) {
    collector_ = std::thread([this] { collector_loop(); });
  }
}

void Runtime::collector_loop() {
  // The shared low-duty background thread: OSS_STATS_EVERY_MS drains the
  // trace rings (bounding drop pressure in apps that never reach a barrier)
  // and prints the StatsSnapshot *delta* since its last tick, so a long run
  // reads as a rate log rather than ever-growing totals; OSS_PROF_EVERY_MS
  // prints profile deltas the same way; OSS_WATCHDOG flags intervals where
  // tasks are in flight but nothing retired and dumps the runtime state.
  // One thread, one tick period (the minimum of the armed knobs), each
  // purpose firing on its own schedule.
  using steady = std::chrono::steady_clock;
  const auto period = [](std::size_t v) {
    return std::chrono::milliseconds(v);
  };
  std::size_t tick_ms = ~std::size_t{0};
  if (cfg_.stats_every_ms > 0) tick_ms = std::min(tick_ms, cfg_.stats_every_ms);
  if (cfg_.prof_every_ms > 0) tick_ms = std::min(tick_ms, cfg_.prof_every_ms);
  if (cfg_.watchdog_ms > 0) tick_ms = std::min(tick_ms, cfg_.watchdog_ms);

  StatsSnapshot prev = stats();
  ProfileSnapshot prev_prof;
  if (prof_ && cfg_.prof_every_ms > 0) prev_prof = prof_->snapshot();
  const auto start = steady::now();
  auto stats_due = start + period(cfg_.stats_every_ms);
  auto prof_due = start + period(cfg_.prof_every_ms);
  auto watch_due = start + period(cfg_.watchdog_ms);
  std::uint64_t watch_last_executed = prev.tasks_executed;
  bool stall_reported = false;

  std::unique_lock lock(collector_mu_);
  while (!collector_stop_.load(std::memory_order_acquire)) {
    collector_cv_.wait_for(lock, period(tick_ms), [this] {
      return collector_stop_.load(std::memory_order_acquire);
    });
    if (collector_stop_.load(std::memory_order_acquire)) break;
    lock.unlock();
    const auto now = steady::now();

    if (take_sigusr1()) {
      std::ostringstream os;
      dump_health(os);
      std::fputs(os.str().c_str(), stderr);
      health_dumps_.fetch_add(1, std::memory_order_relaxed);
    }

    if (cfg_.stats_every_ms > 0 && now >= stats_due) {
      if (trace_) trace_->drain();
      const StatsSnapshot cur = stats();
      std::fprintf(stderr,
                   "[oss-stats tick] +tasks=%llu +steals=%llu +parks=%llu "
                   "+overflow=%llu trace_dropped=%llu\n",
                   static_cast<unsigned long long>(cur.tasks_executed -
                                                   prev.tasks_executed),
                   static_cast<unsigned long long>(cur.steals - prev.steals),
                   static_cast<unsigned long long>(cur.parks - prev.parks),
                   static_cast<unsigned long long>(cur.overflow_placements -
                                                   prev.overflow_placements),
                   static_cast<unsigned long long>(cur.trace_dropped));
      prev = cur;
      stats_due = now + period(cfg_.stats_every_ms);
    }

    if (cfg_.prof_every_ms > 0 && prof_ && now >= prof_due) {
      const ProfileSnapshot cur = prof_->snapshot();
      const char* top = cur.labels.empty() ? "-" : cur.labels[0].name.c_str();
      std::fprintf(stderr,
                   "[oss-prof tick] +tasks=%llu +work=%.3fms span=%.3fms "
                   "parallelism=%.2f top=%s\n",
                   static_cast<unsigned long long>(cur.tasks - prev_prof.tasks),
                   static_cast<double>(cur.work_ns - prev_prof.work_ns) / 1e6,
                   static_cast<double>(cur.span_ns) / 1e6, cur.parallelism(),
                   top);
      prev_prof = cur;
      prof_due = now + period(cfg_.prof_every_ms);
    }

    if (cfg_.watchdog_ms > 0 && now >= watch_due) {
      const std::uint64_t executed = stats_.snapshot().tasks_executed;
      const std::size_t inflight = pending_tasks();
      if (inflight > 0 && executed == watch_last_executed) {
        // Tasks in flight, zero retirements for a whole interval: stalled.
        // One dump per stall episode — the flag resets on any progress.
        if (!stall_reported) {
          stall_reported = true;
          std::ostringstream os;
          os << "[oss-watchdog] no task retired for " << cfg_.watchdog_ms
             << " ms with " << inflight << " in flight\n";
          dump_health(os);
          std::fputs(os.str().c_str(), stderr);
          health_dumps_.fetch_add(1, std::memory_order_relaxed);
        }
      } else {
        stall_reported = false;
      }
      watch_last_executed = executed;
      watch_due = now + period(cfg_.watchdog_ms);
    }

    lock.lock();
  }
}

void Runtime::apply_pinning() {
  const PinMode mode = cfg_.resolved_pin_mode();
  // Node-set pinning on a single-node topology (including OSS_NUMA=off)
  // would pin every worker to the same full CPU set — a no-op; the knob
  // structurally dissolves like the rest of the NUMA subsystem.  The
  // single-CPU layouts (compact/scatter) stay meaningful on one node: they
  // stop the kernel migrating workers between cores mid-run.
  if (mode == PinMode::Node && topo_.single_node()) return;
  if (!pinning_supported()) {
    std::fprintf(stderr,
                 "oss: OSS_PIN=%s ignored: thread affinity is not supported "
                 "on this platform\n",
                 to_string(mode));
    return;
  }

  // Compact/scatter targets come from the pure layout function; node mode
  // keeps the per-worker node lookup (the scheduler owns that mapping).
  const std::vector<std::vector<int>> layout =
      pin_layout(topo_, mode, num_threads_);

  const std::vector<int> allowed = allowed_cpus();
  std::size_t skipped = 0;
  if (allowed.empty()) {
    skipped = num_threads_;
  } else {
    for (std::size_t w = 0; w < num_threads_; ++w) {
      std::vector<int> want;
      if (mode == PinMode::Node) {
        const int node = scheduler_->worker_node(static_cast<int>(w));
        want = topo_.nodes()[static_cast<std::size_t>(node)].cpus;
      } else {
        want = layout[w];
        // Flat/blind topologies discover no CPUs; lay the workers out over
        // the process mask instead so compact/scatter still pin one CPU
        // each rather than silently skipping everyone.
        if (want.empty()) want = {allowed[w % allowed.size()]};
      }
      const std::vector<int> target = intersect_cpus(want, allowed);
      if (target.empty()) {
        ++skipped;
        continue;
      }
      bool ok;
      if (w == 0) {
        ok = pin_current_thread(target);
        if (ok) {
          owner_prev_cpus_ = allowed;
          slot0_cpus_ = target;
        }
      } else {
        ok = pin_thread(workers_[w - 1].native_handle(), target);
      }
      if (ok) {
        ++pinned_workers_;
      } else {
        ++skipped;
      }
    }
  }
  if (skipped > 0) {
    std::fprintf(stderr,
                 "oss: OSS_PIN=%s: process cpu mask does not cover the "
                 "requested layout; %zu of %zu workers left unpinned\n",
                 to_string(mode), skipped, num_threads_);
  }
}

Runtime::~Runtime() {
  // Stop the collector before *anything* else is torn down: its ticks call
  // stats()/dump_health() against live runtime state, so joining it first
  // (atomic stop flag + cv handshake) guarantees no tick can land
  // mid-destruction.  The empty lock_guard orders the store against a
  // concurrent wait_for predicate check — a collector between its predicate
  // and its sleep observes either the flag or the notify.
  if (collector_.joinable()) {
    collector_stop_.store(true, std::memory_order_release);
    { std::lock_guard lock(collector_mu_); }
    collector_cv_.notify_all();
    collector_.join();
  }
  try {
    barrier();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "oss::Runtime: exception pending at destruction: %s\n",
                 e.what());
  } catch (...) {
    std::fprintf(stderr, "oss::Runtime: exception pending at destruction\n");
  }
  stop_.store(true, std::memory_order_release);
  standin_stop_.store(true, std::memory_order_release);
  for (auto& gate : idle_gates_) gate->notify_all();
  {
    std::lock_guard lock(cv_mu_);
    cv_.notify_all();
  }
  for (auto& w : workers_) w.join();
  // A loan never reclaimed on the owning thread ends here.
  if (standin_.joinable()) standin_.join();
  // No root task will register again: drop the homed producers the
  // barrier kept, so the root context is not kept alive by its own tasks.
  root_ctx_->quiesce(/*closing=*/true);
  // Final drain after every producer thread is gone, then the deferred
  // export (trace_to / OSS_TRACE_OUT).  Failures warn — a missing trace
  // file must never take the process down in a destructor.
  if (trace_) {
    trace_->drain();
    if (!trace_out_.empty()) {
      const bool prv = trace_out_.size() >= 4 &&
                       trace_out_.compare(trace_out_.size() - 4, 4, ".prv") == 0;
      const bool ok = prv ? trace_->write_paraver(trace_out_)
                          : trace_->write_chrome_json(trace_out_);
      if (!ok) {
        std::fprintf(stderr, "oss: could not write trace to '%s'\n",
                     trace_out_.c_str());
      }
    }
  }
  // OSS_PROF=1 footer: the sorted per-label table + work/span summary,
  // printed after the workers joined (every record is in).
  if (prof_ && prof_footer_enabled()) {
    std::fputs(prof_->snapshot().to_table("runtime").c_str(), stderr);
  }
  if (cfg_.watchdog_ms > 0) uninstall_sigusr1();
  // Hand the owning thread back with its pre-pin affinity mask: the caller
  // outlives the runtime, and a thread silently left pinned to one node
  // would be a surprising parting gift.  Only when the destructor runs on
  // the thread that was pinned (restoring through a stored handle would
  // dereference a possibly-dead pthread_t when the owner exited first);
  // a runtime destroyed cross-thread leaves that thread's pinned mask in
  // place.
  if (!owner_prev_cpus_.empty() && std::this_thread::get_id() == owner_tid_) {
    pin_current_thread(owner_prev_cpus_);
  }
  if (tl_binding.rt == this) tl_binding = ThreadBinding{};
}

// ---------------------------------------------------------------------------
// Slot-0 loan
// ---------------------------------------------------------------------------

bool Runtime::lend_slot0() {
  std::lock_guard lock(loan_mu_);
  if (standin_.joinable()) {
    // Already lent: only the owning thread, now foreign and outside any
    // task, adds a loan to the running stand-in.
    if (tl_binding.rt != nullptr ||
        std::this_thread::get_id() != owner_tid_) {
      return false;
    }
    ++lenders_;
    return true;
  }
  if (tl_binding.rt != this || tl_binding.worker != 0 ||
      tl_binding.current_task != nullptr) {
    return false;
  }
  // One occupant at a time: the owning thread gives up its binding, its
  // slot-0 CPU mask and its trace row before the stand-in exists.  The
  // thread start orders everything the owner did as worker 0 (its deque,
  // prof shard, run slot) before the stand-in's first step.
  tl_binding = ThreadBinding{};
  if (!slot0_cpus_.empty()) pin_current_thread(owner_prev_cpus_);
  if (trace_) trace_->bind_worker(-1);
  try {
    standin_ = std::thread([this] {
      if (!slot0_cpus_.empty()) pin_current_thread(slot0_cpus_);
      worker_loop(0, standin_stop_);
    });
  } catch (...) {
    rebind_owner();
    throw;
  }
  ++lenders_;
  return true;
}

void Runtime::reclaim_slot0() {
  std::thread standin;
  {
    std::lock_guard lock(loan_mu_);
    if (lenders_ > 0) --lenders_;
    if (lenders_ > 0 || !standin_.joinable() || tl_binding.rt != nullptr ||
        std::this_thread::get_id() != owner_tid_) {
      return;
    }
    standin = std::move(standin_);
  }
  // Joined outside loan_mu_: a task the stand-in is finishing may itself
  // lend or reclaim (and be refused) without deadlocking against us.  The
  // stand-in returns once it holds no kept task; what it left queued stays
  // stealable.
  standin_stop_.store(true, std::memory_order_release);
  idle_gates_[gate_index(0)]->notify_all();
  standin.join();
  standin_stop_.store(false, std::memory_order_relaxed);
  rebind_owner();
}

void Runtime::rebind_owner() {
  if (!slot0_cpus_.empty()) pin_current_thread(slot0_cpus_);
  if (trace_) trace_->bind_worker(0);
  tl_binding = ThreadBinding{this, 0, nullptr};
}

// ---------------------------------------------------------------------------
// Spawning
// ---------------------------------------------------------------------------

ContextPtr Runtime::current_spawn_context() {
  if (tl_binding.rt == this && tl_binding.current_task != nullptr) {
    return tl_binding.current_task->child_context();
  }
  return root_ctx_;
}

// The legacy positional shims route through the exact spec (and thus the
// same inline-closure slot and pooled task path) the builder uses: the
// vector argument is adopted wholesale, and `fn` is already a SmallFn by
// the time it arrives — a shim spawn and a builder spawn of the same body
// perform identical allocations (test_task_pool.cpp holds that parity).
std::uint64_t Runtime::spawn(AccessList accesses, Task::Fn fn, std::string label) {
  TaskSpec spec;
  spec.accesses.adopt(std::move(accesses));
  spec.label = std::move(label);
  return spawn_task(std::move(spec), std::move(fn)).id();
}

std::uint64_t Runtime::spawn(AccessList accesses, Task::Fn fn, TaskOptions opts) {
  TaskSpec spec;
  spec.accesses.adopt(std::move(accesses));
  spec.label = std::move(opts.label);
  spec.priority = opts.priority;
  spec.deferred = opts.deferred;
  return spawn_task(std::move(spec), std::move(fn)).id();
}

TaskHandle Runtime::spawn_task(TaskSpec spec, Task::Fn fn) {
  ContextPtr ctx = spec.context ? std::move(spec.context)
                                : current_spawn_context();
  // Capture scope (oss::replay): tasks spawned while a GraphCapture is
  // open are recorded and *held* — validated up front so a rejected spawn
  // leaves no bookkeeping behind.  Undeferred (`if(0)`) tasks would
  // deadlock against their own hold predecessor, and non-root contexts
  // (TaskGroup / nested spawns) cannot be reproduced by replay, which
  // always re-submits into the root context.
  GraphCapture* const cap = capture_.load(std::memory_order_relaxed);
  if (cap != nullptr) {
    if (!spec.deferred) {
      throw std::logic_error(
          "oss::GraphCapture: undeferred (if(0)) tasks cannot be captured");
    }
    if (ctx != root_ctx_) {
      throw std::logic_error(
          "oss::GraphCapture: only root-context tasks can be captured (no "
          "TaskGroup or nested spawns inside a capture scope)");
    }
  }
  const std::uint64_t id =
      next_task_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  TaskPtr task;
  if (cfg_.pool) {
    // Steady-state path: a recycled task object, its containers still
    // holding last life's capacity.  prepare() + set_accesses() touch no
    // allocator once the pool and the task's buffers are warm.
    const pool::AcquireResult a = pool::acquire();
    stats_.on_pool_acquire(a.recycled);
    a.task->prepare(id, std::move(fn), std::move(ctx), std::move(spec.label));
    a.task->set_accesses(spec.accesses.data(), spec.accesses.size());
    task = TaskPtr::adopt(a.task);
  } else {
    // OSS_POOL=off: one fresh allocation per task, deleted at final
    // release — the pre-pool behavior.
    task = TaskPtr::adopt(
        new Task(id, std::move(fn),
                 AccessList(spec.accesses.begin(), spec.accesses.end()),
                 std::move(ctx), std::move(spec.label)));
  }
  // `ctx` moved into the task: its refcount shares a line with every
  // retiring worker, so a spawn bumps it once and reaches the context
  // through the task from here on.
  TaskContext& parent = *task->parent_context();
  task->set_priority(spec.priority);
  task->set_undeferred(!spec.deferred);
  parent.spawned.fetch_add(1, std::memory_order_acq_rel);
  spawned_.fetch_add(1, std::memory_order_acq_rel);

  if (graph_) graph_->add_node(id, task->label());
  if (trace_) task->set_trace_label(trace_->intern(task->label()));
  if (prof_) {
    // Same FNV-1a hash as the trace intern, so one trace_label slot serves
    // both; when both are on the second intern is a TLS-cache hit.
    task->set_trace_label(prof_->intern(task->label()));
    task->set_spawn_ts(ProfSystem::clock());
  }

  // Spawn guard: hold one phantom predecessor while edges materialize so a
  // burst of concurrently finishing producers cannot publish (or worse,
  // publish twice) a half-registered task.  Released below; whoever brings
  // preds to zero — this thread or a finisher — owns the Ready transition.
  task->preds.store(1, std::memory_order_relaxed);

  // Record into the open capture scope *before* registration: on_spawn
  // assigns the capture index (so on_edge can resolve the consumer) and
  // adds the hold predecessor that keeps the whole iteration parked until
  // GraphCapture::finish().
  if (cap != nullptr) cap->on_spawn(task);

  const RegisterReceipt receipt =
      parent.domain().register_task(task, edge_sink_, trace_.get());
  stats_.on_dep_registration(receipt.shards_touched, receipt.contended);

  // Explicit handle edges (TaskBuilder::after), deduplicated: one edge
  // per distinct predecessor even if the same handle was passed twice.
  for (std::size_t i = 0; i < spec.after.size(); ++i) {
    const TaskPtr& pred = spec.after[i];
    bool dup = false;
    for (std::size_t j = 0; j < i && !dup; ++j) {
      dup = (spec.after[j] == pred);
    }
    if (!dup) add_explicit_edge(pred, task, edge_sink_, trace_.get());
  }

  // NUMA home node, resolved in precedence order: the explicit hint, the
  // node of the largest registered access region (.affinity_auto()), then
  // the chain-inherited node (max-bytes vote over dependency predecessors
  // with a resolved home, recorded by dep_domain during registration
  // above).  Hints naming a node the topology does not have are ignored,
  // so affinity-annotated code runs unchanged on smaller machines.
  // Derived homes (auto/inherited) are marked *soft*: the scheduler's
  // pressure feedback may widen them, never an explicit hint.  Must be set
  // before the spawn guard is released — a finisher may publish the task
  // to the scheduler the instant preds can reach zero.
  const auto valid_node = [this](int n) {
    return n >= 0 && static_cast<std::size_t>(n) < topo_.num_nodes();
  };
  int home = -1;
  bool soft = false;
  if (valid_node(spec.affinity)) {
    home = spec.affinity;
  } else if (spec.affinity_auto) {
    const int derived = home_node_of(task->accesses());
    if (valid_node(derived)) {
      home = derived;
      soft = true;
    }
  }
  if (home < 0 && valid_node(task->inherited_node())) {
    home = task->inherited_node();
    soft = true;
  }
  if (home >= 0 && !topo_.single_node()) {
    task->set_home_node(home, soft);
  }

  stats_.on_spawn();

  const int spawner = (tl_binding.rt == this) ? tl_binding.worker : -1;

  // Release the spawn guard.  acq_rel: the release half publishes the
  // registration (accesses, locks, home node) to the finisher that later
  // zeroes preds; the acquire half, when *we* zero it, synchronizes with
  // every producer that already finished and decremented.
  const bool ready =
      task->preds.fetch_sub(1, std::memory_order_acq_rel) == 1;
  if (ready) {
    task->set_state(TaskState::Ready);
    // Ready at spawn: no dependency wait (ready_ts == spawn_ts).
    if (prof_) task->set_ready_ts(task->spawn_ts());
  }
  if (trace_) trace_->emit_spawn(id, task->trace_label(), ready);

  if (task->undeferred()) {
    // OmpSs if(0): the spawning thread waits for the dependencies itself
    // (helping with other work meanwhile) and runs the body inline.
    // on_finished() marks undeferred tasks Ready without enqueueing them.
    // Successors kept by the tasks run here are published, not run: the
    // spawner returns to its own code as soon as its task is done.
    std::size_t idle_rounds = 0;
    while (task->state() != TaskState::Ready) {
      if (TaskPtr t = scheduler_->pick(spawner, stats_)) {
        if (TaskPtr kept = execute(t, spawner)) {
          hand_back(std::move(kept), spawner);
        }
        idle_rounds = 0;
        continue;
      }
      if (++idle_rounds > cfg_.spin_rounds) {
        std::this_thread::yield();
        idle_rounds = 0;
      }
    }
    if (TaskPtr kept = execute(task, spawner)) {
      hand_back(std::move(kept), spawner);
    }
    return TaskHandle(this, std::move(task));
  }

  if (ready) {
    // Node-aware wakeup: prefer a worker parked on the task's home node,
    // else one on the spawner's node (warm cache), else anyone.
    const int wake_node =
        task->home_node() >= 0 ? task->home_node()
                               : scheduler_->worker_node(spawner);
    TaskPtr to_run = task;
    scheduler_->enqueue_spawned(std::move(to_run), spawner);
    wake_one_worker(wake_node);
    if (blocked_waiters_.load(std::memory_order_acquire) > 0) {
      std::lock_guard lock(cv_mu_);
      cv_.notify_all();
    }
  }
  return TaskHandle(this, std::move(task));
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

TaskPtr Runtime::execute(const TaskPtr& t, int wid) {
  t->set_state(TaskState::Running);
  Task* const prev_task = tl_binding.current_task;
  Runtime* const prev_rt = tl_binding.rt;
  const int prev_wid = tl_binding.worker;
  tl_binding = ThreadBinding{this, wid, t.get()};

  // Commutative regions: hold every exclusion lock for the duration of the
  // body.  Locks are acquired in address order (deadlock-free) and
  // deduplicated (one region may appear via several accesses).
  std::vector<std::mutex*> locks;
  for (const auto& sp : t->exclusion_locks()) locks.push_back(sp.get());
  std::sort(locks.begin(), locks.end());
  locks.erase(std::unique(locks.begin(), locks.end()), locks.end());
  for (std::mutex* m : locks) m->lock();

  // Raw-tick timestamps: one rdtsc here, one after the body; the ns
  // conversion happens at drain/snapshot time, off the execution path.
  const std::uint64_t t0 = (trace_ || path_track_) ? TraceSystem::clock() : 0;
  if (prof_ && wid >= 0) {
    // Watchdog view: what this worker is running right now.  Relaxed
    // stores — the collector's read is an approximate snapshot by design.
    RunSlot& slot = run_slots_[static_cast<std::size_t>(wid)];
    slot.label.store(t->trace_label(), std::memory_order_relaxed);
    slot.start_ticks.store(t0, std::memory_order_relaxed);
    slot.task_id.store(t->id(), std::memory_order_relaxed);
  }
  try {
    t->run();
  } catch (...) {
    t->parent_context()->note_exception(std::current_exception());
  }
  for (auto it = locks.rbegin(); it != locks.rend(); ++it) (*it)->unlock();
  t->release_body(); // handles may outlive the task; free captures now
  // Only the body spawns into its child context: once it returned, the
  // context is closed, and if its children are done too it need not keep
  // any of them (they would keep it alive).
  if (const ContextPtr& c = t->child_context_if_any()) {
    c->quiesce(/*closing=*/true);
  }
  if (trace_) trace_->emit_run(t->id(), t->trace_label(), t0);

  std::uint64_t exec_ticks = 0;
  if (path_track_) {
    const std::uint64_t t1 = TraceSystem::clock();
    exec_ticks = t1 > t0 ? t1 - t0 : 0;
  }
  if (prof_) {
    if (wid >= 0) {
      run_slots_[static_cast<std::size_t>(wid)].task_id.store(
          0, std::memory_order_relaxed);
    }
    const std::uint64_t spawn_ts = t->spawn_ts();
    std::uint64_t ready_ts = t->ready_ts();
    if (ready_ts == 0) ready_ts = spawn_ts;
    const std::uint64_t wait = ready_ts > spawn_ts ? ready_ts - spawn_ts : 0;
    const std::uint64_t queue = t0 > ready_ts ? t0 - ready_ts : 0;
    prof_->record(wid, t->trace_label(), exec_ticks, wait, queue);
  }

  tl_binding = ThreadBinding{prev_rt, prev_wid, prev_task};
  stats_.on_execute(wid);
  return on_finished(t, wid, exec_ticks);
}

TaskPtr Runtime::on_finished(const TaskPtr& t, int wid,
                             std::uint64_t exec_ticks) {
  // Retirement takes only the finished task's own successor lock — no
  // dependency-shard lock is ever re-entered here, so a finish never
  // serializes against in-flight registrations of unrelated regions.
  // finish_take_successors marks the task finished and drains the list as
  // one atomic step: an edge racing in either lands in `succs` or observes
  // `finished` and is skipped by the registrant.  Both lists are borrowed
  // per-thread scratch vectors — retirement runs once per task and must
  // not allocate (ScratchTaskVec above).
  ScratchTaskVec succs_scratch;
  std::vector<TaskPtr>& succs = succs_scratch.get();
  t->finish_take_successors(succs);
  t->set_state(TaskState::Finished);

  // Critical-path bookkeeping (oss::prof / graph coloring): this task's
  // path length is the longest predecessor path plus its own execution.
  // Reading the pred-path fields plain is safe here: every offer to them
  // happened under this task's succ_mu_ before the offering predecessor
  // decremented preds, and finish_take_successors just took that mutex.
  std::uint64_t path_ticks = 0;
  PathAttr path_attr{};
  if (path_track_) {
    path_ticks = t->pred_path_ticks() + exec_ticks;
    path_attr = t->pred_attr();
    path_attr.add(t->trace_label(), exec_ticks);
    t->set_path_ticks(path_ticks);
    if (prof_) prof_->note_path(path_ticks, path_attr);
    if (graph_) graph_->set_node_path(t->id(), path_ticks, t->crit_pred());
  }

  ScratchTaskVec ready_scratch;
  std::vector<TaskPtr>& newly_ready = ready_scratch.get();
  // Successor hand-off: the first released task the scheduler lets this
  // worker keep is returned to the caller's loop and run next — no queue
  // push, no wakeup, no thief racing the finisher for the deque lines.
  TaskPtr kept;
  std::uint64_t ready_now = 0; // one clock read shared by the whole burst
  for (TaskPtr& s : succs) {
    // The offer must precede the decrement: the successor reads its pred
    // path plain once ITS preds hit zero, relying on exactly this order.
    if (path_track_) s->offer_pred_path(path_ticks, t->id(), path_attr);
    // acq_rel: acquire pairs with the producers' release decrements (their
    // outputs are visible to the task body) and with the spawner's guard
    // release (the registration is complete when we publish).
    if (s->preds.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      // ready_ts before the Ready store: an undeferred spawner acquires the
      // state and may read the timestamp immediately.
      if (prof_) {
        if (ready_now == 0) ready_now = ProfSystem::clock();
        s->set_ready_ts(ready_now);
      }
      s->set_state(TaskState::Ready);
      if (trace_) trace_->emit_ready(s->id());
      // Undeferred tasks are claimed by their (polling) spawner and must
      // not be enqueued; the Ready state transition is their signal.
      if (s->undeferred()) continue;
      if (!kept && scheduler_->keep_unblocked(s, wid)) {
        kept = std::move(s);
      } else {
        newly_ready.push_back(std::move(s));
      }
    }
  }

  // Batch wakeup: enqueue the whole burst first, then release min(N, parked)
  // workers in one eventcount pass per node gate instead of N serial
  // notify_one calls.  On multi-node topologies the burst is bucketed by
  // home node so each bucket's wakeup starts at the gate whose workers own
  // the data (node-aware wakeup); tasks without a home count towards the
  // finisher's node.  The single-gate (single-node) case skips the
  // bucketing entirely — this path runs once per task completion and must
  // not allocate.  The kept task is in no queue, so it wakes nobody.
  const std::size_t gates = idle_gates_.size();
  if (gates == 1) {
    for (TaskPtr& s : newly_ready) {
      scheduler_->enqueue_unblocked(std::move(s), wid);
    }
    wake_workers(newly_ready.size(), 0);
  } else {
    constexpr std::size_t kInlineGates = 16;
    std::size_t inline_counts[kInlineGates] = {};
    std::vector<std::size_t> spill;
    if (gates > kInlineGates) spill.resize(gates, 0);
    std::size_t* per_gate = gates > kInlineGates ? spill.data() : inline_counts;
    const std::size_t finisher_gate = gate_index(wid);
    for (TaskPtr& s : newly_ready) {
      const int home = s->home_node();
      const std::size_t g =
          (home >= 0 && static_cast<std::size_t>(home) < gates)
              ? static_cast<std::size_t>(home)
              : finisher_gate;
      ++per_gate[g];
      scheduler_->enqueue_unblocked(std::move(s), wid);
    }
    for (std::size_t g = 0; g < gates; ++g) {
      if (per_gate[g] > 0) wake_workers(per_gate[g], static_cast<int>(g));
    }
  }

  // Child-count updates must happen after the graph bookkeeping so a
  // taskwait that observes zero children also observes the final graph.
  // The runtime-wide count goes first, so that taskwait also reads
  // pending_tasks() without those children.
  retired_.fetch_add(1, std::memory_order_acq_rel);
  t->parent_context()->retired.fetch_add(1, std::memory_order_acq_rel);

  if (blocked_waiters_.load(std::memory_order_acquire) > 0) {
    std::lock_guard lock(cv_mu_);
    cv_.notify_all();
  }
  return kept;
}

TaskPtr Runtime::next_task(TaskPtr& held, int wid) {
  if (!held) return scheduler_->pick(wid, stats_);
  scheduler_->account_kept(held, wid, stats_);
  return std::move(held);
}

void Runtime::hand_back(TaskPtr t, int wid) {
  const int wake_node =
      t->home_node() >= 0 ? t->home_node() : scheduler_->worker_node(wid);
  scheduler_->enqueue_unblocked(std::move(t), wid);
  wake_one_worker(wake_node);
}

void Runtime::worker_loop(int wid, const std::atomic<bool>& stop) {
  tl_binding = ThreadBinding{this, wid, nullptr};
  if (trace_) trace_->bind_worker(wid);
  std::size_t idle_rounds = 0;
  std::size_t sleep_us = 20;
  // Park on the own node's gate (node-aware wakeup): home-node enqueues
  // bump this gate first, so the worker that wakes is one whose socket
  // already holds the task's data.
  EventCount& gate = *idle_gates_[gate_index(wid)];
  // A chain of kept successors runs link after link through `held`.
  TaskPtr held;
  while (held || !stop.load(std::memory_order_acquire)) {
    if (TaskPtr t = next_task(held, wid)) {
      held = execute(t, wid);
      idle_rounds = 0;
      sleep_us = 20;
      continue;
    }
    ++idle_rounds;
    switch (cfg_.idle) {
      case IdlePolicy::Spin:
        // Pure polling: the behaviour the paper observes ("all used cores
        // are always fully loaded even if there is insufficient work").
        break;
      case IdlePolicy::Yield:
        if (idle_rounds > cfg_.spin_rounds) {
          std::this_thread::yield();
          idle_rounds = 0;
        }
        break;
      case IdlePolicy::Sleep:
        // Power-friendly back-off: short sleeps with exponential growth,
        // trading wake-up latency for idle CPU time.
        if (idle_rounds > cfg_.spin_rounds) {
          std::this_thread::sleep_for(std::chrono::microseconds(sleep_us));
          if (sleep_us < 1000) sleep_us *= 2;
          idle_rounds = 0;
        }
        break;
      case IdlePolicy::Park:
        // Eventcount protocol: register as a waiter, re-check for work,
        // and only then sleep.  An enqueue between prepare and wait bumps
        // the epoch, so wait() returns immediately — no lost wakeups, no
        // sleep-loop latency, no idle CPU burn.  The re-check is a cheap
        // emptiness probe (prepare_wait's seq_cst op makes earlier
        // enqueues visible to it); actually picking the task happens back
        // in the loop, outside the waiter window, so producers never see
        // a phantom waiter while this worker is busy executing.
        if (idle_rounds > cfg_.spin_rounds) {
          const std::uint64_t key = gate.prepare_wait();
          if (stop.load(std::memory_order_acquire) ||
              scheduler_->queued() != 0) {
            gate.cancel_wait();
          } else {
            stats_.on_park();
            if (trace_) trace_->emit_park();
            // The scheduler's per-node parked counts feed the home-queue
            // pressure feedback ("is another node idle?").
            scheduler_->on_worker_park(wid);
            gate.wait(key);
            scheduler_->on_worker_unpark(wid);
            if (trace_) trace_->emit_unpark();
          }
          idle_rounds = 0;
        }
        break;
    }
  }
  tl_binding = ThreadBinding{};
}

std::size_t Runtime::gate_index(int wid) const noexcept {
  if (idle_gates_.size() == 1) return 0;
  const int node = scheduler_->worker_node(wid);
  return (node >= 0 && static_cast<std::size_t>(node) < idle_gates_.size())
             ? static_cast<std::size_t>(node)
             : 0;
}

void Runtime::wake_one_worker(int preferred_node) {
  wake_workers(1, preferred_node);
}

void Runtime::wake_workers(std::size_t n, int preferred_node) {
  if (n == 0) return;
  const std::size_t gates = idle_gates_.size();
  // Start at the preferred node's gate; fall back round-robin over the
  // rest until `n` workers were signalled or every gate was tried, so a
  // wakeup can never be lost to node preference (work conservation).
  std::size_t start;
  if (preferred_node >= 0 && static_cast<std::size_t>(preferred_node) < gates) {
    start = static_cast<std::size_t>(preferred_node);
  } else {
    start = gates == 1
                ? 0
                : wake_cursor_.fetch_add(1, std::memory_order_relaxed) % gates;
  }
  std::size_t woken = 0;
  for (std::size_t i = 0; i < gates && woken < n; ++i) {
    woken += idle_gates_[(start + i) % gates]->notify_many(n - woken);
  }
  if (woken > 0) stats_.on_wakeup(woken);
}

// ---------------------------------------------------------------------------
// Waiting
// ---------------------------------------------------------------------------

void Runtime::wait_until(const std::function<bool()>& done) {
  const bool bound = tl_binding.rt == this;
  const int wid = bound ? tl_binding.worker : -1;
  const bool in_task = bound && tl_binding.current_task != nullptr;

  if (cfg_.wait_policy == WaitPolicy::Blocking && num_threads_ > 1 &&
      !in_task) {
    // Sleep-based wait (the "more expensive blocking thread barrier" of the
    // paper's rgbcmy analysis).  The waiter does not execute tasks; with a
    // single thread there would be nobody left to run them, so that case
    // falls through to the polling path below.  So does a wait inside a
    // task body: once every executor held such a sleeper, the children
    // they wait for would never run.
    blocked_waiters_.fetch_add(1, std::memory_order_acq_rel);
    std::unique_lock lock(cv_mu_);
    cv_.wait(lock, [&] { return done(); });
    blocked_waiters_.fetch_sub(1, std::memory_order_acq_rel);
    return;
  }

  // Polling wait: help execute tasks until the predicate holds.  The
  // predicate is re-checked between the links of a kept chain, so a nested
  // taskwait returns once its children finish even while an unrelated
  // chain keeps handing this thread successors; the link it holds then is
  // published for another worker.
  TaskPtr held;
  std::size_t idle_rounds = 0;
  while (!done()) {
    if (TaskPtr t = next_task(held, wid)) {
      held = execute(t, wid);
      idle_rounds = 0;
      continue;
    }
    if (++idle_rounds > cfg_.spin_rounds) {
      std::this_thread::yield();
      idle_rounds = 0;
    }
  }
  if (held) hand_back(std::move(held), wid);
}

void Runtime::taskwait() { taskwait_scope(current_spawn_context()); }

void Runtime::taskwait_on(const void* p, std::size_t bytes) {
  ContextPtr ctx = current_spawn_context();
  const auto begin = reinterpret_cast<std::uintptr_t>(p);
  std::vector<TaskPtr> waitees;
  // The domain locks its own shards; as before, the wait set covers
  // previously spawned siblings (spawns racing this call are not covered).
  ctx->domain().collect_overlapping(begin, begin + bytes, waitees);
  if (waitees.empty()) return;
  wait_until([&] {
    for (const TaskPtr& t : waitees) {
      if (!t->finished()) return false;
    }
    return true;
  });
}

void Runtime::taskwait_on(const TaskHandle& h) {
  const TaskPtr& t = h.task();
  if (!t || t->finished()) return;
  if (h.runtime() != this) {
    throw std::invalid_argument(
        "oss::Runtime::taskwait_on: handle belongs to a different runtime");
  }
  wait_until([&] { return t->finished(); });
}

void Runtime::taskwait_scope(const ContextPtr& ctx, bool closing) {
  stats_.on_taskwait();
  wait_until([&] { return ctx->live_children() == 0; });
  // Quiescent point: the children's dependency history is finished
  // history, unless a concurrent spawner got in meanwhile.
  ctx->quiesce(closing);
  if (std::exception_ptr ep = ctx->take_exception()) std::rethrow_exception(ep);
}

void Runtime::barrier() {
  stats_.on_barrier();
  wait_until([&] { return pending_tasks() == 0; });
  root_ctx_->quiesce();
  // Quiescent point: relieve any ring at half capacity so iterative apps
  // (barrier per frame/phase) never drop events between real drains.  Rings
  // below the threshold are left alone — an empty-handed check is two loads
  // per ring, so tight barrier loops stay cheap.
  if (trace_) trace_->drain_if_pressed();
  if (std::exception_ptr ep = root_ctx_->take_exception())
    std::rethrow_exception(ep);
}

void Runtime::critical(std::string_view name, const std::function<void()>& fn) {
  std::lock_guard lock(criticals_.get(name));
  fn();
}

// ---------------------------------------------------------------------------
// TaskHandle (declared in task_handle.hpp; needs the complete Runtime)
// ---------------------------------------------------------------------------

void TaskHandle::wait() const {
  if (rt_ == nullptr || task_ == nullptr || task_->finished()) return;
  rt_->taskwait_on(*this);
}

// ---------------------------------------------------------------------------
// Introspection
// ---------------------------------------------------------------------------

StatsSnapshot Runtime::stats() const {
  // The single coherent merge of runtime-owned and scheduler-owned
  // counters (see the header for the relaxed-read contract).  Counters are
  // sampled in one pass here so every consumer — table1, the apps'
  // StatsSnapshot out-params, tests — sees the same merge, rather than
  // each call site stitching its own.
  StatsSnapshot s = stats_.snapshot();
  s.overflow_placements = scheduler_->overflow_placements();
  if (trace_) s.trace_dropped = trace_->dropped();
  // The task pool is process-wide; report the overflow delta since this
  // runtime was constructed (approximate when runtimes overlap, exact for
  // the usual one-runtime-at-a-time case).
  s.pool_overflow = pool::overflow_total() - pool_overflow_base_;
  return s;
}

ProfileSnapshot Runtime::profile() const {
  return prof_ ? prof_->snapshot() : ProfileSnapshot{};
}

void Runtime::dump_health(std::ostream& os) const {
  const StatsSnapshot s = stats();
  const std::size_t inflight = pending_tasks();
  os << "[oss-health] pending=" << inflight << " spawned=" << s.tasks_spawned
     << " executed=" << s.tasks_executed << " queued=" << scheduler_->queued()
     << "\n";

  const QueueDepths qd = scheduler_->queue_depths();
  os << "[oss-health] queues: priority=" << qd.priority
     << " global=" << qd.global;
  for (std::size_t n = 0; n < qd.per_node.size(); ++n) {
    os << " node" << n << "=" << qd.per_node[n]
       << "(parked=" << scheduler_->parked_on_node(static_cast<int>(n)) << ")";
  }
  os << "\n";

  // What every worker is doing right now (racy snapshot; a task may retire
  // between the id load and the print — ages are approximate).
  const double rate = prof_ ? prof_->ns_per_tick() : 1.0;
  const std::uint64_t now = ProfSystem::clock();
  for (std::size_t w = 0; w < num_threads_; ++w) {
    os << "[oss-health] worker " << w << ": ";
    const std::uint64_t id =
        run_slots_ ? run_slots_[w].task_id.load(std::memory_order_relaxed) : 0;
    if (id != 0) {
      const std::uint32_t lab =
          run_slots_[w].label.load(std::memory_order_relaxed);
      const std::uint64_t start =
          run_slots_[w].start_ticks.load(std::memory_order_relaxed);
      const double ms =
          now > start ? static_cast<double>(now - start) * rate / 1e6 : 0.0;
      os << "running #" << id << " '"
         << (prof_ ? prof_->label_name(lab) : std::string("?")) << "' for "
         << static_cast<std::uint64_t>(ms) << " ms";
    } else {
      os << "idle";
    }
    if (w < qd.per_worker.size()) os << ", deque=" << qd.per_worker[w];
    os << "\n";
  }

  // Oldest unfinished tasks still registered in the root dependency domain
  // (tasks declaring no accesses are invisible here).  The TaskPtr refs
  // keep them alive and un-recycled while we print.
  std::vector<TaskPtr> unfinished;
  root_ctx_->domain().collect_overlapping(0, ~std::uintptr_t{0}, unfinished);
  std::sort(unfinished.begin(), unfinished.end(),
            [](const TaskPtr& a, const TaskPtr& b) {
              return a->spawn_ts() < b->spawn_ts();
            });
  const std::size_t show = std::min<std::size_t>(unfinished.size(), 5);
  if (show > 0) {
    os << "[oss-health] oldest unfinished tasks (" << unfinished.size()
       << " total):\n";
  }
  for (std::size_t i = 0; i < show; ++i) {
    const TaskPtr& t = unfinished[i];
    const std::uint64_t spawn = t->spawn_ts();
    const double age_ms =
        (spawn != 0 && now > spawn)
            ? static_cast<double>(now - spawn) * rate / 1e6
            : 0.0;
    os << "[oss-health]   #" << t->id() << " '" << t->label() << "' "
       << to_string(t->state())
       << " preds=" << t->preds.load(std::memory_order_relaxed) << " age="
       << static_cast<std::uint64_t>(age_ms) << " ms\n";
  }
}

std::string Runtime::export_graph_dot() const {
  return graph_ ? graph_->to_dot() : std::string{};
}

std::string Runtime::export_trace_json() const {
  return trace_ ? trace_->to_chrome_json() : std::string{};
}

void Runtime::trace_to(std::string path) {
  if (!trace_) {
    std::fprintf(stderr,
                 "oss: trace_to(\"%s\") ignored: tracing is off (set "
                 "OSS_TRACE=exec|full or RuntimeConfig::trace_mode before "
                 "constructing the runtime)\n",
                 path.c_str());
    return;
  }
  trace_out_ = std::move(path);
}

} // namespace oss
