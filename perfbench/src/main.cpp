// perfbench — the repository benchmark.
//
//   perfbench --workload <opgraph|opgraph_replay|decode_service>
//             --seed <n> --seconds <s> --trace <0|1> [--trace-out <path>]
//
// Prints a run report, a host line, and as its last stdout line one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics when --trace 0, the per-layer metrics (from a run that records
// spans) when --trace 1.  Exits 1 when any output was wrong or the run was
// invalid, 2 on a usage or environment error (without a result line).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "ompss/topology.hpp"

extern char** environ;

namespace {

using perfbench::Metric;

struct Name {
  std::string name;
  const char* unit;
};

const std::vector<Name> kEndToEnd = {
    {"setup_s", "s"},
    {"latency_ms", "ms"},
    {"throughput_per_s", "1/s"},
};

/// Every per-layer metric, in BENCHMARK.json order.  A workload that does
/// not exercise a layer reports 0 for it.
std::vector<Name> per_layer_names() {
  return {
      {"apps.seq_ms", "ms"},
      {"apps.h264dec.seq_ms", "ms"},
      {"apps.h264dec.pthreads_ms", "ms"},
      {"apps.h264dec.ompss_ms", "ms"},
      {"apps.table1_speedup", "ratio"},
      {"ompss.spawn_ns.p50", "ns"},
      {"ompss.spawn_ns.p99", "ns"},
      {"ompss.edges_per_task", "1/task"},
      {"ompss.dep_contended", "1/task"},
      {"ompss.pool_misses", "1/task"},
      {"ompss.replay_ns_per_task", "ns"},
      {"ompss.capture_ms", "ms"},
      {"ompss.replayed_tasks", "count"},
      {"ompss.ready_wait_ns.p50", "ns"},
      {"ompss.ready_wait_ns.p99", "ns"},
      {"ompss.drain_us", "us"},
      {"ompss.busy_frac", "frac"},
      {"ompss.steals_per_task", "1/task"},
      {"ompss.steal_success", "frac"},
      {"ompss.parks_per_task", "1/task"},
      {"ompss.wakeups_per_task", "1/task"},
      {"ompss.body_ns.p50", "ns"},
      {"service.open_us", "us"},
      {"service.close_us", "us"},
      {"service.submit_us.p50", "us"},
      {"service.submit_us.p99", "us"},
      {"service.window_full_frac", "frac"},
      {"service.backlog_max", "count"},
      {"service.deadline_miss_frac", "frac"},
      {"service.frame_p50_ms", "ms"},
      {"service.frame_p99_ms", "ms"},
      {"service.frame_samples", "count"},
      {"service.tasks_per_frame", "1/frame"},
      {"gen.lag_p99_ms", "ms"},
      {"trace_overhead_frac", "frac"},
  };
}

[[noreturn]] void usage_error(const std::string& msg) {
  std::fprintf(stderr, "perfbench: %s\n", msg.c_str());
  std::exit(2);
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c == '\n' || c == '\t') ? ' ' : c;
  }
  return out;
}

/// Orders `got` by the canonical list.  Every listed name must be present
/// when `required`; otherwise a missing one reads 0.  An unlisted name or a
/// unit that disagrees with the list is a programming error.
std::vector<Metric> canonical(const std::vector<Metric>& got,
                              const std::vector<Name>& names, bool required) {
  std::map<std::string, const Metric*> by_name;
  for (const Metric& m : got) by_name[m.name] = &m;
  std::vector<Metric> out;
  for (const Name& n : names) {
    auto it = by_name.find(n.name);
    if (it == by_name.end()) {
      if (required) usage_error("workload did not measure " + n.name);
      out.push_back({n.name, 0.0, n.unit});
      continue;
    }
    if (it->second->unit != n.unit) usage_error("unit mismatch on " + n.name);
    if (!std::isfinite(it->second->value)) usage_error("no finite value for " + n.name);
    out.push_back(*it->second);
    by_name.erase(it);
  }
  if (!by_name.empty()) usage_error("unlisted metric " + by_name.begin()->first);
  return out;
}

} // namespace

int main(int argc, char** argv) {
#ifndef __OPTIMIZE__
  usage_error("refusing to measure an unoptimised build (configure with "
              "CMAKE_BUILD_TYPE=Release)");
#endif
  // The OSS_* knobs silently change the measured program.
  for (char** e = environ; e && *e; ++e) {
    if (std::strncmp(*e, "OSS_", 4) == 0) {
      usage_error(std::string("refusing to run with ") + *e +
                  " set; unset every OSS_* variable");
    }
  }

  perfbench::Options o;
  o.threads = std::max(1u, std::thread::hardware_concurrency());
  std::string workload;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage_error("missing value for " + a);
    const std::string v = argv[++i];
    try {
      if (a == "--workload") {
        workload = v;
      } else if (a == "--seed") {
        o.seed = std::stoull(v);
      } else if (a == "--seconds") {
        o.seconds = std::stod(v);
      } else if (a == "--trace") {
        o.trace = v == "1";
        if (v != "0" && v != "1") usage_error("--trace takes 0 or 1");
      } else if (a == "--trace-out") {
        o.trace_path = v;
      } else {
        usage_error("unknown argument " + a);
      }
    } catch (const std::logic_error&) {
      usage_error("bad value for " + a + ": " + v);
    }
  }
  if (!(o.seconds > 0)) usage_error("--seconds must be positive");

  perfbench::Result r;
  try {
    if (workload == "opgraph") {
      r = perfbench::run_opgraph(o, false);
    } else if (workload == "opgraph_replay") {
      r = perfbench::run_opgraph(o, true);
    } else if (workload == "decode_service") {
      r = perfbench::run_decode_service(o);
    } else {
      usage_error("unknown workload '" + workload + "'");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", workload.c_str(), e.what());
    return 1;
  }

  const std::vector<Metric> metrics =
      o.trace ? canonical(r.per_layer, per_layer_names(), false)
              : canonical(r.end_to_end, kEndToEnd, true);

  for (const std::string& line : r.report) std::printf("%s: %s\n", workload.c_str(), line.c_str());
  if (!r.valid) std::printf("%s: INVALID: %s\n", workload.c_str(), r.invalid_reason.c_str());
  const oss::Topology topo = oss::Topology::from_sysfs();
  std::printf("{\"host\": {\"cpus\": %zu, \"numa_nodes\": %zu, \"compiler\": \"%s\", "
              "\"flags\": \"%s\", \"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
              "\"trace\": %d, \"threads\": %zu}}\n",
              static_cast<std::size_t>(std::thread::hardware_concurrency()),
              topo.num_nodes(), json_escape(PERFBENCH_COMPILER).c_str(),
              json_escape(PERFBENCH_CXX_FLAGS).c_str(), workload.c_str(),
              static_cast<unsigned long long>(o.seed), o.seconds, o.trace ? 1 : 0,
              o.threads);

  const bool correct = r.valid && r.failed == 0 && r.attempted > 0;
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  char num[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(num, sizeof num, "%.17g", metrics[i].value);
    out += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + num +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  return correct ? 0 : 1;
}
