#!/usr/bin/env bash
# run_matrix.sh — env-matrix test harness for the runtime's knob space.
#
# The scheduler grew knobs faster than any single test run covers them:
# policy × idle behaviour × NUMA mode × topology all interact (a parked
# worker is what arms the pressure feedback, a fake multi-node topology is
# what arms placement, ...).  This harness reruns the three suites that
# drive the runtime hardest across the full cross-product, so knob
# *interactions* get coverage instead of only the defaults:
#
#   OSS_SCHEDULER ∈ {fifo, locality, wsteal}
#   OSS_IDLE      ∈ {park, yield}
#   OSS_NUMA      ∈ {bind, off}
#   OSS_TOPOLOGY  ∈ {flat, 2x2}
#
# = 24 environments × 3 test binaries.  The suites read the environment
# through tests/ompss/env_config.hpp; tests that require a specific knob
# value (e.g. multi-node assertions) force it and are exercised for "does
# the forced path survive this environment" instead.
#
# A second, dedicated phase sweeps the dependency-domain sharding axis
# (OSS_DEP_SHARDS ∈ {1, 8} × OSS_POOL ∈ {on, off} × OSS_SCHEDULER) over
# the concurrent-spawner stress suite, the multi-stream decode-service
# suite, and the graph-replay suite — the two structurally different
# registration paths (single-lock fallback vs sorted multi-lock), with
# task pooling both armed and disarmed, under every scheduler,
# without doubling the full cross product.  The service suite rides this
# phase because its per-stream checksum parity is exactly the property the
# scheduler × shards × pool axes could break; the replay suite because its
# edge-multiset parity contract is *defined* over the shards × pool axis
# (docs/replay.md).
#
# A third phase sweeps the wait policy (OSS_BARRIER ∈ {poll, block}) over
# the taskwait, decode-service and app suites: a blocking wait outside a
# task sleeps, one inside a task body must still help run tasks, and the
# service and the pipelined apps nest exactly those waits.
#
# Usage:
#   tests/run_matrix.sh [build-dir]          (default: ./build)
#
# Overrides (space-separated lists):
#   MATRIX_BINARIES MATRIX_SCHEDULERS MATRIX_IDLES MATRIX_NUMAS
#   MATRIX_TOPOLOGIES MATRIX_DEP_SHARDS MATRIX_POOLS
#   MATRIX_SHARD_BINARIES MATRIX_BARRIERS MATRIX_BARRIER_BINARIES
#   MATRIX_GTEST_ARGS
set -u

BUILD_DIR=${1:-build}
BINARIES=${MATRIX_BINARIES:-"ompss_test_stress ompss_test_affinity ompss_test_runtime_semantics"}
SCHEDULERS=${MATRIX_SCHEDULERS:-"fifo locality wsteal"}
IDLES=${MATRIX_IDLES:-"park yield"}
NUMAS=${MATRIX_NUMAS:-"bind off"}
TOPOLOGIES=${MATRIX_TOPOLOGIES:-"flat 2x2"}
DEP_SHARDS=${MATRIX_DEP_SHARDS:-"1 8"}
POOLS=${MATRIX_POOLS:-"on off"}
SHARD_BINARIES=${MATRIX_SHARD_BINARIES:-"ompss_test_concurrent_spawn ompss_test_replay service_test_service"}
BARRIERS=${MATRIX_BARRIERS:-"poll block"}
BARRIER_BINARIES=${MATRIX_BARRIER_BINARIES:-"ompss_test_taskwait service_test_service apps_test_h264dec apps_test_chained_apps apps_test_complex_apps apps_test_kernel_apps"}
GTEST_ARGS=${MATRIX_GTEST_ARGS:-"--gtest_brief=1"}

for bin in $BINARIES $SHARD_BINARIES $BARRIER_BINARIES; do
  if [ ! -x "$BUILD_DIR/$bin" ]; then
    echo "run_matrix: missing binary $BUILD_DIR/$bin (build first)" >&2
    exit 2
  fi
done

log=$(mktemp)
trap 'rm -f "$log"' EXIT

runs=0
failures=0
for sched in $SCHEDULERS; do
  for idle in $IDLES; do
    for numa in $NUMAS; do
      for topo in $TOPOLOGIES; do
        combo="OSS_SCHEDULER=$sched OSS_IDLE=$idle OSS_NUMA=$numa OSS_TOPOLOGY=$topo"
        for bin in $BINARIES; do
          runs=$((runs + 1))
          # The suites read the whole OSS_* family via from_env; unset the
          # knobs the matrix does not control so ambient shell exports
          # cannot skew (or break) a supposedly-controlled environment.
          if env -u OSS_NUM_THREADS -u OSS_BARRIER -u OSS_SPIN_ROUNDS \
                 -u OSS_STEAL_TRIES -u OSS_PIN -u OSS_PRESSURE \
                 -u OSS_RECORD_GRAPH -u OSS_TRACE -u OSS_DEP_SHARDS \
                 -u OSS_TRACE_BUF -u OSS_TRACE_OUT -u OSS_STATS \
                 -u OSS_STATS_EVERY_MS -u OSS_POOL \
                 -u OSS_PROF -u OSS_PROF_EVERY_MS -u OSS_WATCHDOG \
                 -u OSS_SERVICE_MAX_STREAMS -u OSS_SERVICE_WINDOW \
                 OSS_SCHEDULER="$sched" OSS_IDLE="$idle" OSS_NUMA="$numa" \
                 OSS_TOPOLOGY="$topo" "$BUILD_DIR/$bin" $GTEST_ARGS \
                 >"$log" 2>&1; then
            printf 'ok   %-38s %s\n' "$bin" "$combo"
          else
            failures=$((failures + 1))
            printf 'FAIL %-38s %s\n' "$bin" "$combo"
            sed 's/^/     | /' "$log"
          fi
        done
      done
    done
  done
done

# Phase 2: dependency-shard × pool axis.  OSS_DEP_SHARDS=1 is the
# single-lock fallback, 8 the sharded default; OSS_POOL=on recycles tasks,
# off is the plain-allocator path.  Every combination must
# survive every scheduler with concurrent spawners hammering the domain.
for shards in $DEP_SHARDS; do
  for pool in $POOLS; do
    for sched in $SCHEDULERS; do
      combo="OSS_DEP_SHARDS=$shards OSS_POOL=$pool OSS_SCHEDULER=$sched"
      for bin in $SHARD_BINARIES; do
        runs=$((runs + 1))
        if env -u OSS_NUM_THREADS -u OSS_BARRIER -u OSS_SPIN_ROUNDS \
               -u OSS_STEAL_TRIES -u OSS_PIN -u OSS_PRESSURE \
               -u OSS_RECORD_GRAPH -u OSS_TRACE -u OSS_IDLE -u OSS_NUMA \
               -u OSS_TOPOLOGY -u OSS_TRACE_BUF -u OSS_TRACE_OUT \
               -u OSS_STATS -u OSS_STATS_EVERY_MS \
               -u OSS_PROF -u OSS_PROF_EVERY_MS -u OSS_WATCHDOG \
               -u OSS_SERVICE_MAX_STREAMS -u OSS_SERVICE_WINDOW \
               OSS_DEP_SHARDS="$shards" OSS_POOL="$pool" \
               OSS_SCHEDULER="$sched" \
               "$BUILD_DIR/$bin" $GTEST_ARGS >"$log" 2>&1; then
          printf 'ok   %-38s %s\n' "$bin" "$combo"
        else
          failures=$((failures + 1))
          printf 'FAIL %-38s %s\n' "$bin" "$combo"
          sed 's/^/     | /' "$log"
        fi
      done
    done
  done
done

# Phase 3: wait-policy axis, under every scheduler.
for barrier in $BARRIERS; do
  for sched in $SCHEDULERS; do
    combo="OSS_BARRIER=$barrier OSS_SCHEDULER=$sched"
    for bin in $BARRIER_BINARIES; do
      runs=$((runs + 1))
      if env -u OSS_NUM_THREADS -u OSS_SPIN_ROUNDS -u OSS_STEAL_TRIES \
             -u OSS_PIN -u OSS_PRESSURE -u OSS_RECORD_GRAPH -u OSS_TRACE \
             -u OSS_IDLE -u OSS_NUMA -u OSS_TOPOLOGY -u OSS_DEP_SHARDS \
             -u OSS_TRACE_BUF -u OSS_TRACE_OUT -u OSS_STATS \
             -u OSS_STATS_EVERY_MS -u OSS_POOL \
             -u OSS_PROF -u OSS_PROF_EVERY_MS -u OSS_WATCHDOG \
             -u OSS_SERVICE_MAX_STREAMS -u OSS_SERVICE_WINDOW \
             OSS_BARRIER="$barrier" OSS_SCHEDULER="$sched" \
             "$BUILD_DIR/$bin" $GTEST_ARGS >"$log" 2>&1; then
        printf 'ok   %-38s %s\n' "$bin" "$combo"
      else
        failures=$((failures + 1))
        printf 'FAIL %-38s %s\n' "$bin" "$combo"
        sed 's/^/     | /' "$log"
      fi
    done
  done
done

echo "run_matrix: $runs runs, $failures failures"
[ "$failures" -eq 0 ]
