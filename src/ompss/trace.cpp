#include "ompss/trace.hpp"

#include <algorithm>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <sstream>
#include <unordered_map>

namespace oss {

// ---------------------------------------------------------------------------
// TraceRecorder (legacy view)
// ---------------------------------------------------------------------------

void TraceRecorder::record(int worker, std::uint64_t task_id,
                           const std::string& label, std::uint64_t start_us,
                           std::uint64_t end_us) {
  std::lock_guard lock(mu_);
  events_.push_back(Event{worker, task_id, label, start_us, end_us});
}

std::size_t TraceRecorder::event_count() const {
  std::lock_guard lock(mu_);
  return events_.size();
}

std::vector<TraceRecorder::Event> TraceRecorder::events() const {
  std::lock_guard lock(mu_);
  return events_;
}

namespace {
std::string escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}
} // namespace

std::string TraceRecorder::to_json() const {
  std::lock_guard lock(mu_);
  std::ostringstream os;
  os << "{\"traceEvents\":[";
  bool first = true;
  for (const Event& e : events_) {
    if (!first) os << ',';
    first = false;
    os << "{\"name\":\"" << (e.label.empty() ? "task" : escape(e.label))
       << " #" << e.task_id << "\",\"cat\":\"task\",\"ph\":\"X\",\"ts\":" << e.start_us
       << ",\"dur\":" << (e.end_us - e.start_us) << ",\"pid\":0,\"tid\":" << e.worker
       << "}";
  }
  os << "]}";
  return os.str();
}

// ---------------------------------------------------------------------------
// TraceSystem
// ---------------------------------------------------------------------------

thread_local TraceSystem::TlsSlot TraceSystem::tls_slot_;

namespace {

/// Monotonic instance stamp: a TraceSystem constructed at a reused address
/// never matches a stale TLS slot.
std::atomic<std::uint64_t> g_trace_epoch{1};

std::uint32_t fnv1a(const std::string& s) {
  std::uint32_t h = 2166136261u;
  for (unsigned char c : s) {
    h ^= c;
    h *= 16777619u;
  }
  return h != 0 ? h : 0x9e3779b1u; // 0 is reserved for "unlabeled"
}

} // namespace

TraceSystem::TraceSystem(TraceMode mode, std::size_t ring_capacity)
    : mode_(mode),
      ring_capacity_(ring_capacity < 2 ? 2 : ring_capacity),
      epoch_(g_trace_epoch.fetch_add(1, std::memory_order_relaxed)),
      t0_ticks_(clock()),
      t0_wall_(std::chrono::steady_clock::now()) {}

TraceSystem::~TraceSystem() = default;

void TraceSystem::bind_worker(int wid) {
  std::lock_guard lock(mu_);
  const std::thread::id self = std::this_thread::get_id();
  const int row = wid >= 0 ? wid : kForeignBase + foreign_rows_++;
  for (auto& r : rings_) {
    if (r->owner == self) {
      // A thread changing rows (the owning thread lending or reclaiming
      // slot 0, or a new thread reusing a dead one's id): drain first, so
      // what it emitted so far keeps the row it was emitted under.
      drain_locked();
      r->tid = row;
      tls_slot_ = TlsSlot{this, epoch_, r.get()};
      return;
    }
  }
  rings_.push_back(std::make_unique<Ring>(ring_capacity_));
  Ring* r = rings_.back().get();
  r->tid = row;
  r->owner = self;
  tls_slot_ = TlsSlot{this, epoch_, r};
}

TraceSystem::Ring* TraceSystem::ring_slow() {
  std::lock_guard lock(mu_);
  const std::thread::id self = std::this_thread::get_id();
  for (auto& r : rings_) {
    if (r->owner == self) {
      tls_slot_ = TlsSlot{this, epoch_, r.get()};
      return r.get();
    }
  }
  // A thread the runtime never bound: a foreign spawner.  Give it its own
  // timeline row above the worker range.
  rings_.push_back(std::make_unique<Ring>(ring_capacity_));
  Ring* r = rings_.back().get();
  r->tid = kForeignBase + foreign_rows_++;
  r->owner = self;
  tls_slot_ = TlsSlot{this, epoch_, r};
  return r;
}

std::uint32_t TraceSystem::intern(const std::string& label) {
  intern_calls_.fetch_add(1, std::memory_order_relaxed);
  if (label.empty()) return 0;
  const std::uint32_t h = fnv1a(label);
  // Small per-thread cache of hashes this thread already registered — the
  // steady state (every spawn reusing a handful of labels) stays lock-free.
  struct Cache {
    const TraceSystem* sys = nullptr;
    std::uint64_t epoch = 0;
    std::uint32_t seen[8] = {};
    unsigned next = 0;
  };
  static thread_local Cache cache;
  if (cache.sys == this && cache.epoch == epoch_) {
    for (std::uint32_t s : cache.seen)
      if (s == h) return h;
  } else {
    cache = Cache{};
    cache.sys = this;
    cache.epoch = epoch_;
  }
  {
    std::lock_guard lock(mu_);
    labels_.emplace(h, label); // first string wins on a hash collision
  }
  cache.seen[cache.next++ % 8] = h;
  return h;
}

std::string TraceSystem::label_name(std::uint32_t hash) const {
  if (hash == 0) return {};
  std::lock_guard lock(mu_);
  const auto it = labels_.find(hash);
  return it != labels_.end() ? it->second : std::string{};
}

double TraceSystem::ns_per_tick_locked() {
  const std::uint64_t now_ticks = clock();
  const auto now_wall = std::chrono::steady_clock::now();
  const double dticks = static_cast<double>(now_ticks - t0_ticks_);
  const double dns =
      std::chrono::duration<double, std::nano>(now_wall - t0_wall_).count();
  if (dticks <= 0.0 || dns <= 0.0) return 1.0;
  return dns / dticks;
}

void TraceSystem::drain_locked() {
  const double rate = ns_per_tick_locked();
  const auto to_ns = [&](std::uint64_t ticks) -> std::uint64_t {
    if (ticks == 0 || ticks <= t0_ticks_) return ticks == 0 ? 0 : 1;
    return static_cast<std::uint64_t>(
        static_cast<double>(ticks - t0_ticks_) * rate);
  };
  TraceEvent batch[256];
  for (auto& r : rings_) {
    for (;;) {
      const std::size_t n = r->buf.pop_bulk(batch, 256);
      if (n == 0) break;
      for (std::size_t i = 0; i < n; ++i) {
        if (store_.size() >= kMaxStoredEvents) {
          ++store_clamped_;
          continue;
        }
        TraceEvent e = batch[i];
        e.ts = to_ns(e.ts);
        if (e.kind == TraceEventKind::RunSpan) {
          e.arg = to_ns(e.arg);          // begin ticks → ns
          if (e.ts < e.arg) e.ts = e.arg; // clamp inverted spans
        }
        store_.push_back(Merged{r->tid, e});
      }
    }
  }
}

void TraceSystem::drain() {
  std::lock_guard lock(mu_);
  drain_locked();
}

void TraceSystem::drain_if_pressed() {
  std::lock_guard lock(mu_);
  bool pressed = false;
  for (auto& r : rings_) {
    if (r->buf.size() * 2 >= r->buf.capacity()) {
      pressed = true;
      break;
    }
  }
  if (pressed) drain_locked();
}

std::uint64_t TraceSystem::dropped() const noexcept {
  std::lock_guard lock(mu_);
  std::uint64_t n = store_clamped_;
  for (const auto& r : rings_) n += r->dropped.load(std::memory_order_relaxed);
  return n;
}

std::size_t TraceSystem::event_count() {
  std::lock_guard lock(mu_);
  drain_locked();
  return store_.size();
}

std::vector<TraceSystem::Merged> TraceSystem::merged_events() {
  std::lock_guard lock(mu_);
  drain_locked();
  std::vector<Merged> out = store_;
  std::stable_sort(out.begin(), out.end(), [](const Merged& a, const Merged& b) {
    return a.ev.ts < b.ev.ts;
  });
  return out;
}

namespace {

/// Timeline row ordering: workers by id, then foreign spawners.
std::vector<int> sorted_rows(const std::vector<TraceSystem::Merged>& evs) {
  std::vector<int> rows;
  for (const auto& m : evs) {
    if (std::find(rows.begin(), rows.end(), m.tid) == rows.end())
      rows.push_back(m.tid);
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

std::string row_name(int tid) {
  char buf[32];
  if (tid >= TraceSystem::kForeignBase) {
    std::snprintf(buf, sizeof buf, "spawner %d", tid - TraceSystem::kForeignBase);
  } else {
    std::snprintf(buf, sizeof buf, "worker %d", tid);
  }
  return buf;
}

std::string us3(std::uint64_t ns) { // microseconds with ns resolution
  char buf[48];
  std::snprintf(buf, sizeof buf, "%llu.%03llu",
                static_cast<unsigned long long>(ns / 1000),
                static_cast<unsigned long long>(ns % 1000));
  return buf;
}

} // namespace

std::string TraceSystem::to_chrome_json() {
  std::vector<Merged> evs = merged_events();

  std::ostringstream os;
  os << "{\"traceEvents\":[";
  bool first = true;
  const auto sep = [&] {
    if (!first) os << ',';
    first = false;
  };

  if (mode_ == TraceMode::Exec) {
    // Byte-compatible with the classic TraceRecorder export: one complete
    // ("X") event per executed task, integer microseconds, nothing else.
    std::vector<Merged> runs;
    for (const auto& m : evs)
      if (m.ev.kind == TraceEventKind::RunSpan) runs.push_back(m);
    std::stable_sort(runs.begin(), runs.end(), [](const Merged& a, const Merged& b) {
      return a.ev.arg < b.ev.arg;
    });
    for (const auto& m : runs) {
      const std::string label = label_name(m.ev.label);
      sep();
      os << "{\"name\":\"" << (label.empty() ? "task" : escape(label)) << " #"
         << m.ev.task << "\",\"cat\":\"task\",\"ph\":\"X\",\"ts\":" << m.ev.arg / 1000
         << ",\"dur\":" << (m.ev.ts - m.ev.arg) / 1000 << ",\"pid\":0,\"tid\":"
         << m.tid << "}";
    }
    os << "]}";
    return os.str();
  }

  // Full mode: named worker rows, run spans, spawn→run and dep flow arrows,
  // instants for the scheduler events.
  const std::vector<int> rows = sorted_rows(evs);
  sep();
  os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,"
        "\"args\":{\"name\":\"oss runtime\"}}";
  int sort_index = 0;
  for (int tid : rows) {
    sep();
    os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":" << tid
       << ",\"args\":{\"name\":\"" << row_name(tid) << "\"}}";
    sep();
    os << "{\"name\":\"thread_sort_index\",\"ph\":\"M\",\"pid\":0,\"tid\":" << tid
       << ",\"args\":{\"sort_index\":" << sort_index++ << "}}";
  }

  struct RunRef {
    int tid = -1;
    std::uint64_t begin_ns = 0;
    std::uint64_t end_ns = 0;
  };
  std::unordered_map<std::uint64_t, RunRef> runs;   // task → its run span
  std::unordered_map<std::uint64_t, int> spawn_row; // task → spawn row
  std::unordered_map<std::uint64_t, const char*> tier;
  for (const auto& m : evs) {
    if (m.ev.kind == TraceEventKind::RunSpan)
      runs[m.ev.task] = RunRef{m.tid, m.ev.arg, m.ev.ts};
    else if (m.ev.kind == TraceEventKind::Spawn)
      spawn_row[m.ev.task] = m.tid;
    else if (m.ev.kind == TraceEventKind::Place)
      tier[m.ev.task] = to_string(static_cast<PlaceTier>(m.ev.arg));
  }

  std::uint64_t dep_id = 0;
  for (const auto& m : evs) {
    const TraceEvent& e = m.ev;
    switch (e.kind) {
      case TraceEventKind::RunSpan: {
        const std::string label = label_name(e.label);
        sep();
        os << "{\"name\":\"" << (label.empty() ? "task" : escape(label)) << " #"
           << e.task << "\",\"cat\":\"task\",\"ph\":\"X\",\"ts\":" << us3(e.arg)
           << ",\"dur\":" << us3(e.ts - e.arg) << ",\"pid\":0,\"tid\":" << m.tid;
        // args.task lets offline tools (analyze_trace --span) identify the
        // span without parsing the display name.
        os << ",\"args\":{\"task\":" << e.task;
        const auto t = tier.find(e.task);
        if (t != tier.end()) os << ",\"tier\":\"" << t->second << "\"";
        os << "}}";
        break;
      }
      case TraceEventKind::Spawn: {
        sep();
        os << "{\"name\":\"spawn\",\"cat\":\"spawn\",\"ph\":\"s\",\"id\":" << e.task
           << ",\"ts\":" << us3(e.ts) << ",\"pid\":0,\"tid\":" << m.tid << "}";
        break;
      }
      case TraceEventKind::Ready: {
        sep();
        os << "{\"name\":\"ready #" << e.task
           << "\",\"cat\":\"sched\",\"ph\":\"i\",\"s\":\"t\",\"ts\":" << us3(e.ts)
           << ",\"pid\":0,\"tid\":" << m.tid << "}";
        break;
      }
      case TraceEventKind::Steal: {
        sep();
        os << "{\"name\":\"steal #" << e.task
           << "\",\"cat\":\"sched\",\"ph\":\"i\",\"s\":\"t\",\"ts\":" << us3(e.ts)
           << ",\"pid\":0,\"tid\":" << m.tid << ",\"args\":{\"victim\":" << e.arg
           << "}}";
        break;
      }
      case TraceEventKind::Park:
      case TraceEventKind::Unpark: {
        sep();
        os << "{\"name\":\"" << (e.kind == TraceEventKind::Park ? "park" : "unpark")
           << "\",\"cat\":\"idle\",\"ph\":\"i\",\"s\":\"t\",\"ts\":" << us3(e.ts)
           << ",\"pid\":0,\"tid\":" << m.tid << "}";
        break;
      }
      case TraceEventKind::Overflow: {
        sep();
        os << "{\"name\":\"overflow #" << e.task
           << "\",\"cat\":\"sched\",\"ph\":\"i\",\"s\":\"t\",\"ts\":" << us3(e.ts)
           << ",\"pid\":0,\"tid\":" << m.tid << "}";
        break;
      }
      case TraceEventKind::DepContended: {
        sep();
        os << "{\"name\":\"dep contended #" << e.task
           << "\",\"cat\":\"deps\",\"ph\":\"i\",\"s\":\"t\",\"ts\":" << us3(e.ts)
           << ",\"pid\":0,\"tid\":" << m.tid << "}";
        break;
      }
      case TraceEventKind::Edge: {
        // producer run-end → consumer run-begin, when both spans exist.
        const auto p = runs.find(e.arg);
        const auto c = runs.find(e.task);
        if (p == runs.end() || c == runs.end()) break;
        ++dep_id;
        sep();
        os << "{\"name\":\"dep\",\"cat\":\"dep\",\"ph\":\"s\",\"id\":" << dep_id
           << ",\"ts\":" << us3(p->second.end_ns) << ",\"pid\":0,\"tid\":"
           << p->second.tid << ",\"args\":{\"from\":" << e.arg
           << ",\"to\":" << e.task << "}}";
        sep();
        os << "{\"name\":\"dep\",\"cat\":\"dep\",\"ph\":\"f\",\"bp\":\"e\",\"id\":"
           << dep_id << ",\"ts\":" << us3(c->second.begin_ns)
           << ",\"pid\":0,\"tid\":" << c->second.tid << "}";
        break;
      }
      case TraceEventKind::Place:
        break; // folded into the RunSpan args above
    }
    // The flow arrow's finish half: bind spawn→run at the run's begin.
    if (e.kind == TraceEventKind::RunSpan &&
        spawn_row.find(e.task) != spawn_row.end()) {
      sep();
      os << "{\"name\":\"spawn\",\"cat\":\"spawn\",\"ph\":\"f\",\"bp\":\"e\",\"id\":"
         << e.task << ",\"ts\":" << us3(e.arg) << ",\"pid\":0,\"tid\":" << m.tid
         << "}";
    }
  }
  os << "]}";
  return os.str();
}

const char* to_string(PlaceTier t) noexcept {
  switch (t) {
    case PlaceTier::Priority: return "priority";
    case PlaceTier::Local: return "local";
    case PlaceTier::Home: return "home";
    case PlaceTier::Global: return "global";
  }
  return "?";
}

bool TraceSystem::write_chrome_json(const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  out << to_chrome_json();
  return static_cast<bool>(out);
}

// Paraver event types (the 9xxxxxxx range is free for user semantics).
namespace {
constexpr long kPrvTask = 90000001;      // value = task id (run span borders)
constexpr long kPrvSpawn = 90000002;     // value = task id
constexpr long kPrvReady = 90000003;     // value = task id
constexpr long kPrvSteal = 90000004;     // value = victim worker + 1
constexpr long kPrvPark = 90000005;      // value 1 = park, 0 = unpark
constexpr long kPrvOverflow = 90000006;  // value = task id
constexpr long kPrvContended = 90000007; // value = task id
} // namespace

bool TraceSystem::write_paraver(const std::string& path) {
  std::string base = path;
  if (base.size() > 4 && base.compare(base.size() - 4, 4, ".prv") == 0)
    base.resize(base.size() - 4);

  const std::vector<Merged> evs = merged_events();
  std::vector<int> rows = sorted_rows(evs);
  if (rows.empty()) rows.push_back(0);
  const auto row_of = [&](int tid) {
    return static_cast<int>(
        std::find(rows.begin(), rows.end(), tid) - rows.begin()) + 1;
  };

  std::uint64_t dur = 0;
  for (const auto& m : evs) dur = std::max(dur, m.ev.ts);

  std::ofstream prv(base + ".prv", std::ios::binary);
  if (!prv) return false;
  // Header: date, duration (ns), 1 node with T cpus, 1 app with T threads
  // all on cpu 1.
  std::time_t now = std::time(nullptr);
  std::tm tm{};
#if defined(_WIN32)
  localtime_s(&tm, &now);
#else
  localtime_r(&now, &tm);
#endif
  char date[64];
  std::strftime(date, sizeof date, "%d/%m/%Y at %H:%M", &tm);
  const std::size_t nrows = rows.size();
  prv << "#Paraver (" << date << "):" << dur << "_ns:1(" << nrows << "):1:1("
      << nrows << ":1)\n";

  for (const auto& m : evs) {
    const TraceEvent& e = m.ev;
    const int row = row_of(m.tid);
    switch (e.kind) {
      case TraceEventKind::RunSpan:
        // State record: running (state 1) for the span, plus a task-id
        // event at its begin.
        prv << "1:" << row << ":1:1:" << row << ':' << e.arg << ':' << e.ts
            << ":1\n";
        prv << "2:" << row << ":1:1:" << row << ':' << e.arg << ':' << kPrvTask
            << ':' << e.task << "\n";
        break;
      case TraceEventKind::Spawn:
        prv << "2:" << row << ":1:1:" << row << ':' << e.ts << ':' << kPrvSpawn
            << ':' << e.task << "\n";
        break;
      case TraceEventKind::Ready:
        prv << "2:" << row << ":1:1:" << row << ':' << e.ts << ':' << kPrvReady
            << ':' << e.task << "\n";
        break;
      case TraceEventKind::Steal:
        prv << "2:" << row << ":1:1:" << row << ':' << e.ts << ':' << kPrvSteal
            << ':' << (e.arg + 1) << "\n";
        break;
      case TraceEventKind::Park:
        prv << "2:" << row << ":1:1:" << row << ':' << e.ts << ':' << kPrvPark
            << ":1\n";
        break;
      case TraceEventKind::Unpark:
        prv << "2:" << row << ":1:1:" << row << ':' << e.ts << ':' << kPrvPark
            << ":0\n";
        break;
      case TraceEventKind::Overflow:
        prv << "2:" << row << ":1:1:" << row << ':' << e.ts << ':'
            << kPrvOverflow << ':' << e.task << "\n";
        break;
      case TraceEventKind::DepContended:
        prv << "2:" << row << ":1:1:" << row << ':' << e.ts << ':'
            << kPrvContended << ':' << e.task << "\n";
        break;
      case TraceEventKind::Place:
      case TraceEventKind::Edge:
        break; // structural; no timeline coordinate
    }
  }
  if (!prv) return false;

  std::ofstream rowf(base + ".row", std::ios::binary);
  if (!rowf) return false;
  rowf << "LEVEL THREAD SIZE " << nrows << "\n";
  for (int tid : rows) rowf << row_name(tid) << "\n";
  if (!rowf) return false;

  std::ofstream pcf(base + ".pcf", std::ios::binary);
  if (!pcf) return false;
  pcf << "EVENT_TYPE\n"
      << "0 " << kPrvTask << " Task id (run begin)\n"
      << "0 " << kPrvSpawn << " Task spawned\n"
      << "0 " << kPrvReady << " Task deps resolved\n"
      << "0 " << kPrvSteal << " Steal (value = victim worker + 1)\n"
      << "0 " << kPrvPark << " Worker parked (1) / woke (0)\n"
      << "0 " << kPrvOverflow << " Overflow placement\n"
      << "0 " << kPrvContended << " Dep-shard contention\n";
  return static_cast<bool>(pcf);
}

TraceRecorder& TraceSystem::legacy_recorder() {
  std::vector<Merged> runs;
  {
    std::lock_guard lock(mu_);
    drain_locked();
    for (const auto& m : store_)
      if (m.ev.kind == TraceEventKind::RunSpan) runs.push_back(m);
  }
  std::stable_sort(runs.begin(), runs.end(), [](const Merged& a, const Merged& b) {
    return a.ev.arg < b.ev.arg;
  });
  auto rec = std::make_unique<TraceRecorder>();
  for (const auto& m : runs) {
    rec->record(m.tid, m.ev.task, label_name(m.ev.label), m.ev.arg / 1000,
                m.ev.ts / 1000);
  }
  std::lock_guard lock(mu_);
  legacy_ = std::move(rec);
  return *legacy_;
}

} // namespace oss
