// selftest — checks that the benchmark measures what it claims.
//
//   1. The opgraph workload's kernels reproduce apps::opgraph_seq bit for
//      bit on the app's own input, so the benchmark drives the app's graph.
//   2. Attribution: a busy-wait of known length injected into the bench's
//      body wrapper raises ompss.body_ns by about that length and leaves
//      ompss.spawn_ns and ompss.ready_wait_ns within their bounds; the same
//      busy-wait injected around the spawn call raises ompss.spawn_ns only.
//
// Exits 0 when every check holds.  Run through perfbench/tests/test_perfbench.py
// or directly: perfbench_selftest
#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "apps/opgraph/opgraph_app.hpp"
#include "bench.hpp"

namespace {

int failures = 0;

void check(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

double row(const perfbench::Result& r, const std::string& name) {
  for (const auto& m : r.per_layer) {
    if (m.name == name) return m.value;
  }
  check(false, "missing row " + name);
  return 0.0;
}

/// The three rows the attribution checks compare.
struct Rows {
  double body = 0, spawn = 0, wait = 0;
};

Rows traced_opgraph(std::int64_t body_ns, std::int64_t spawn_ns) {
  perfbench::Options o;
  o.seed = 7;
  o.seconds = 2.0;
  o.trace = true;
  o.threads = std::max(1u, std::thread::hardware_concurrency());
  o.inject_body_ns = body_ns;
  o.inject_spawn_ns = spawn_ns;
  const perfbench::Result r = perfbench::run_opgraph(o, false);
  check(r.failed == 0 && r.attempted > 0, "opgraph outputs verify");
  return {row(r, "ompss.body_ns.p50"), row(r, "ompss.spawn_ns.p50"),
          row(r, "ompss.ready_wait_ns.p50")};
}

/// Row-wise median over rounds.  The host's speed drifts by more than the
/// injected lengths between runs seconds apart, so the configurations run
/// interleaved, round by round, and each row compares medians.
Rows median_rows(const std::vector<Rows>& rounds) {
  std::vector<double> body, spawn, wait;
  for (const Rows& x : rounds) {
    body.push_back(x.body);
    spawn.push_back(x.spawn);
    wait.push_back(x.wait);
  }
  return {perfbench::median(body), perfbench::median(spawn), perfbench::median(wait)};
}

/// `after` is within the bound of `before`: half of it, or 1 us when the
/// row is small, since sub-microsecond rows jitter by hundreds of ns.
bool unchanged(double before, double after) {
  const double bound = std::max(0.5 * before, 1000.0);
  return after >= before - bound && after <= before + bound;
}

bool rises_by(double before, double after, double inject) {
  const double d = after - before;
  return d >= 0.75 * inject && d <= 1.5 * inject;
}

void report(const char* tag, const Rows& r) {
  std::printf("  %-10s body_ns.p50=%.0f spawn_ns.p50=%.0f ready_wait_ns.p50=%.0f\n", tag,
              r.body, r.spawn, r.wait);
}

} // namespace

int main() {
  apps::OpGraphWorkload w; // the app's default shape: 48x42 ops, 6 iters
  check(perfbench::opgraph_canonical_seq(w.iters) == apps::opgraph_seq(w),
        "bench opgraph kernels reproduce apps::opgraph_seq");

  // Body: 400 ns, a few times the ~0.2 us body, yet small enough that the
  // workers keep up with the spawner.  At 1-2 us they fall behind on a
  // busy 4-CPU host, ready tasks queue and ready_wait_ns rises 50-200x:
  // real queueing, not an attribution error.  Spawn: 2 us, clear of the
  // run-to-run jitter of the ~3-4 us spawn call; a slower spawner only
  // lowers the load.
  constexpr std::int64_t kBodyInject = 400;
  constexpr std::int64_t kSpawnInject = 2000;
  constexpr int kRounds = 3;
  std::vector<Rows> base_r, body_r, spawn_r;
  for (int i = 0; i < kRounds; ++i) {
    base_r.push_back(traced_opgraph(0, 0));
    body_r.push_back(traced_opgraph(kBodyInject, 0));
    spawn_r.push_back(traced_opgraph(0, kSpawnInject));
  }
  const Rows base = median_rows(base_r);
  const Rows body = median_rows(body_r);
  const Rows spawn = median_rows(spawn_r);
  report("baseline", base);
  report("+body", body);
  report("+spawn", spawn);

  check(rises_by(base.body, body.body, kBodyInject),
        "body injection raises body_ns by about the injected length");
  check(unchanged(base.spawn, body.spawn), "body injection leaves spawn_ns within bounds");
  check(unchanged(base.wait, body.wait), "body injection leaves ready_wait_ns within bounds");
  check(rises_by(base.spawn, spawn.spawn, kSpawnInject),
        "spawn injection raises spawn_ns by about the injected length");
  check(unchanged(base.body, spawn.body), "spawn injection leaves body_ns within bounds");
  check(unchanged(base.wait, spawn.wait), "spawn injection leaves ready_wait_ns within bounds");

  std::printf("%s\n", failures ? "selftest FAILED" : "selftest passed");
  return failures ? 1 : 0;
}
