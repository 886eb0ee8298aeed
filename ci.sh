#!/usr/bin/env bash
# Continuous-integration driver: configure -> build -> ctest in the
# supported configurations.
#
#   ./ci.sh            # Release (warnings-as-errors) + ASan/UBSan (+ TSan)
#   ./ci.sh release    # just the Release leg (+ fault-seed sweep over the
#                      # crash-recovery differential suite and the
#                      # end-to-end benchmark smoke)
#   ./ci.sh asan       # the sanitizer leg: ASan/UBSan suite + fault-seed
#                      # sweep + a TSan sibling config running the
#                      # parallel-path, quarantine/watchdog, and pinned
#                      # fault-seed tests
#   ./ci.sh bench      # Release bench leg: ctest -L bench-smoke with the
#                      # JSON sink on, merged into BENCH_ci.json
#
# The release and asan legs run the full CTest suite including the
# `bench-smoke` label, which executes every bench/ binary at tiny scale
# (RELBORG_SCALE=0.05).
#
# Env knobs:
#   JOBS=N                       parallel build/test jobs (default: nproc)
#   RELBORG_REQUIRE_BENCHMARK=1  fail if CMake configure warns that Google
#                                Benchmark is missing (CI sets this so the
#                                micro_* targets can never silently vanish
#                                from the recorded trajectory)
set -euo pipefail
cd "$(dirname "$0")"

JOBS=${JOBS:-$(nproc)}
MODE=${1:-all}

# ccache cuts warm CI configure+build times dramatically; harmless when
# absent locally.
LAUNCHER_ARGS=()
if command -v ccache >/dev/null 2>&1; then
  LAUNCHER_ARGS=(-DCMAKE_CXX_COMPILER_LAUNCHER=ccache)
fi

check_configure_log() {
  local log=$1
  if [[ "${RELBORG_REQUIRE_BENCHMARK:-0}" == "1" ]] &&
     grep -q "Google Benchmark not found" "${log}"; then
    echo "ci.sh: Google Benchmark is missing but RELBORG_REQUIRE_BENCHMARK=1;" \
         "refusing to silently skip the micro_* targets" >&2
    exit 1
  fi
}

configure() {
  local dir=$1
  shift
  mkdir -p "${dir}"
  cmake -B "${dir}" -S . "${LAUNCHER_ARGS[@]}" "$@" 2>&1 |
    tee "${dir}/configure.log"
  check_configure_log "${dir}/configure.log"
}

run_leg() {
  local name=$1
  shift
  local dir="build-ci-${name}"
  echo "==== [${name}] configure"
  configure "${dir}" "$@"
  echo "==== [${name}] build"
  cmake --build "${dir}" -j "${JOBS}"
  echo "==== [${name}] test"
  ctest --test-dir "${dir}" --output-on-failure -j "${JOBS}"
}

fault_sweep() {
  # Crash-recovery differential under pinned fault seeds. The `fault`
  # label's suites sweep every (site, hit) pair internally when
  # RELBORG_FAULT_SEED is unset — that already ran as part of the full
  # suite above — so this sweep pins one seed per run, proving the env
  # knob selects single faults reproducibly (the debugging workflow for a
  # failed differential). Seeds 0..5 hit each registered fault site once.
  local name=$1 dir=$2
  for seed in 0 1 2 3 4 5; do
    echo "==== [${name}] fault-seed sweep: RELBORG_FAULT_SEED=${seed}"
    RELBORG_FAULT_SEED=${seed} ctest --test-dir "${dir}" \
      --output-on-failure -j "${JOBS}" --no-tests=error -L fault
  done
}

# Documentation gates (every mode; they cost nothing). The public serving
# surface must stay documented: both docs files exist, and every public
# header under src/serve/ opens with a file-level comment.
echo "==== [docs] check documentation presence"
for doc in docs/ARCHITECTURE.md docs/API.md docs/OBSERVABILITY.md; do
  if [[ ! -s "${doc}" ]]; then
    echo "ci.sh: ${doc} is missing or empty" >&2
    exit 1
  fi
done
for hdr in src/serve/*.h; do
  if [[ "$(head -c 2 "${hdr}")" != "//" ]]; then
    echo "ci.sh: public header ${hdr} lacks a file-level comment" \
         "(line 1 must start with //)" >&2
    exit 1
  fi
done

if [[ "${MODE}" == "all" || "${MODE}" == "release" ]]; then
  # -march=native is off in CI so binaries are portable across runners.
  run_leg release \
    -DCMAKE_BUILD_TYPE=Release \
    -DRELBORG_WERROR=ON \
    -DRELBORG_NATIVE=OFF
  fault_sweep release build-ci-release
  echo "==== [release] end-to-end benchmark smoke"
  # Every workload at tiny scale, traced and untraced, with the benchmark's
  # own verification: the learn tree bit-identical between repetitions,
  # the covariance batch against its query-at-a-time oracle, the stream
  # workloads against serial replay.
  CARGO_TARGET_DIR="build-ci-release/e2e-bench" python3 e2e_bench/run.py --smoke
fi

if [[ "${MODE}" == "all" || "${MODE}" == "asan" ]]; then
  run_leg asan \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DRELBORG_WERROR=ON \
    -DRELBORG_SANITIZE=ON
  fault_sweep asan build-ci-asan

  # TSan sibling config: ASan and TSan cannot combine, so the parallel
  # exec paths (thread pool, ExecPolicy thread sweeps) get their own
  # build; only the thread-exercising suites run, to keep the leg cheap.
  echo "==== [tsan] configure"
  configure build-ci-tsan \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DRELBORG_WERROR=ON \
    -DRELBORG_SANITIZE_THREAD=ON \
    -DRELBORG_BUILD_BENCH=OFF \
    -DRELBORG_BUILD_EXAMPLES=OFF
  echo "==== [tsan] build"
  cmake --build build-ci-tsan -j "${JOBS}" \
    --target covar_arena_test covar_arena_snapshot_test exec_policy_test \
             obs_test robustness_test serve_snapshot_test shard_test \
             stream_checkpoint_test stream_scheduler_test \
             stream_stress_test thread_pool_test util_test
  echo "==== [tsan] test (parallel paths)"
  # --no-tests=error: a renamed suite or broken discovery must fail the
  # leg, not let it pass green having verified nothing. StreamIngress and
  # StreamBackpressure cover the quarantine, TryPush-deadline, and
  # watchdog paths, whose producer/applier/watchdog interplay is exactly
  # what TSan exists to check.
  TSAN_OPTIONS="halt_on_error=1" ctest --test-dir build-ci-tsan \
    --output-on-failure -j "${JOBS}" --no-tests=error \
    -R 'ExecPolicy|ThreadSweep|IndependentViewGroups|ThreadPool|CovarArena|StreamScheduler|StagedIngest|StreamIngress|StreamBackpressure|ObsMetrics|ObsTrace|ObsStream'
  echo "==== [tsan] test (stream stress suite)"
  # The randomized differential stress suite: watermark-overlapped commits
  # racing real maintenance under TSan, bit-identity checked per case.
  TSAN_OPTIONS="halt_on_error=1" ctest --test-dir build-ci-tsan \
    --output-on-failure -j "${JOBS}" --no-tests=error -L stream-stress
  echo "==== [tsan] test (crash-recovery differential, pinned seeds)"
  # The full internal (site, hit) sweep is too slow at TSan's ~10x tax;
  # two pinned seeds — mid-epoch publish fault (1) and checkpoint-write
  # fault (3) — exercise the kill/restore/replay protocol's cross-thread
  # handoff under TSan without re-running the whole matrix.
  for seed in 1 3; do
    TSAN_OPTIONS="halt_on_error=1" RELBORG_FAULT_SEED=${seed} \
      ctest --test-dir build-ci-tsan \
      --output-on-failure -j "${JOBS}" --no-tests=error -L fault
  done
fi

if [[ "${MODE}" == "all" || "${MODE}" == "bench" ]]; then
  dir=build-ci-bench
  echo "==== [bench] configure"
  configure "${dir}" \
    -DCMAKE_BUILD_TYPE=Release \
    -DRELBORG_WERROR=ON \
    -DRELBORG_NATIVE=OFF \
    -DRELBORG_BUILD_EXAMPLES=OFF
  echo "==== [bench] build"
  cmake --build "${dir}" -j "${JOBS}"
  echo "==== [bench] run bench smokes (JSON sink on)"
  # The smokes' CTest ENVIRONMENT points each harness at its own file
  # under ${dir}/bench-json/, so parallel execution cannot interleave.
  ctest --test-dir "${dir}" --output-on-failure -j "${JOBS}" \
    --no-tests=error -L bench-smoke
  echo "==== [bench] fig4_left thread sweep at default scale"
  # The smokes run at RELBORG_SCALE=0.05, far too small for parallel
  # headroom; the speedup acceptance gate is measured at default scale.
  RELBORG_BENCH_JSON="${dir}/bench-json/fig4_left_default_scale.jsonl" \
    "${dir}/bench/fig4_left_batch_speedup" > "${dir}/fig4_left_default.log"
  echo "==== [bench] fig4_right at second scale point (0.5)"
  # Second scale point for the trajectory: the smoke scale (0.05) streams
  # only a few thousand tuples, far too few to say anything about the
  # async scheduler; 0.5 runs a ~100k-tuple stream standalone (not under
  # a parallel ctest), so the async-vs-serial ratio is meaningful.
  # RELBORG_THREADS is pinned to 4 so the records carry a host-independent
  # {threads} identity: the async gate below and the committed baselines
  # (recorded with the same pin) match it on any runner size.
  # --epoch-rows-sweep additionally records the epoch-size tradeoff curve
  # of the watermark-overlapped async path into the trajectory.
  RELBORG_SCALE=0.5 RELBORG_THREADS=4 \
    RELBORG_BENCH_JSON="${dir}/bench-json/fig4_right_scale05.jsonl" \
    "${dir}/bench/fig4_right_ivm_throughput" --epoch-rows-sweep \
    > "${dir}/fig4_right_scale05.log"
  echo "==== [bench] obs overhead + traced-pipeline validation (0.5)"
  # Traced vs untraced ingest at the meaningful 0.5 scale (the smoke-scale
  # run is ~10ms of pipeline startup, far below the timing noise floor).
  # The harness writes the traced run's Chrome trace, and
  # tools/trace_summary.py both schema-validates it and demands spans from
  # every pipeline stage thread — a real StreamScheduler run, exported,
  # parsed, and summarized on every CI bench leg.
  RELBORG_SCALE=0.5 RELBORG_THREADS=4 \
    RELBORG_BENCH_JSON="${dir}/bench-json/fig_obs_overhead_scale05.jsonl" \
    "${dir}/bench/fig_obs_overhead" --reps 5 \
    --trace-out "${dir}/obs_trace.json" > "${dir}/fig_obs_overhead.log"
  python3 tools/trace_summary.py "${dir}/obs_trace.json" \
    --expect-thread assemble --expect-thread commit \
    --expect-thread compute --expect-thread apply
  echo "==== [bench] shard scaling at second scale point (0.5)"
  # Sharded-vs-unsharded pipeline scaling at a stream size where the fleet
  # amortizes its startup (the smoke scale is a few thousand tuples). The
  # harness pins intra-op threads to 1 itself, so no RELBORG_THREADS pin
  # here — the ratio's identity is the shard count, carried in {threads}.
  RELBORG_SCALE=0.5 \
    RELBORG_BENCH_JSON="${dir}/bench-json/fig_shard_scaling_scale05.jsonl" \
    "${dir}/bench/fig_shard_scaling" > "${dir}/fig_shard_scaling.log"
  echo "==== [bench] merge trajectory"
  python3 tools/merge_bench_json.py "${dir}/bench-json" \
    -o "${dir}/BENCH_ci.json" \
    --label "ci-$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
  echo "==== [bench] diff against committed baseline"
  # >10% regressions of matching records against the newest committed
  # BENCH_PR*.json are WARNINGS (single-shot timings on shared runners are
  # too noisy for a tight hard gate); >25% regressions FAIL the leg —
  # except observability metrics that stay warn-only: worst-case latency
  # (one scheduler preemption swings a single-shot max arbitrarily) and
  # the async scheduler records, whose smoke-scale instances are all
  # pipeline startup; the meaningful 0.5-scale async ratio is enforced by
  # the dedicated >= 1.3x gate below instead. Exit code 2 means the files
  # share no records (e.g. after a metric rename) — that stays a warning,
  # not a failure.
  baseline=$(ls BENCH_PR*.json 2>/dev/null | sort -V | tail -n 1)
  if [[ -n "${baseline}" ]]; then
    rc=0
    # ^obs_ stays warn-only here: the <= 2% overhead bar is enforced by
    # the dedicated gate below at 0.5 scale, where it is measurable.
    # fivm_sharded*/shard_merge_seconds stay warn-only too: the ratios are
    # enforced by the dedicated >= 1.3x gate below at 0.5 scale, and the
    # sub-microsecond merge timings sit below the single-shot noise floor.
    python3 tools/diff_bench_json.py --fail-threshold 0.25 \
      --fail-exclude '_async_|_latency_max_ms$|^obs_|_sharded|^shard_merge_' \
      "${baseline}" "${dir}/BENCH_ci.json" || rc=$?
    if [[ "${rc}" -eq 2 ]]; then
      echo "ci.sh: bench diff could not compare baselines (non-fatal)" >&2
    elif [[ "${rc}" -eq 3 ]]; then
      # rc 3 = broken input (missing / truncated / unparseable JSON): the
      # bench leg produced garbage, which must fail loudly rather than
      # masquerade as either "no regressions" or a perf verdict.
      echo "ci.sh: bench diff input is missing or corrupt — the bench leg" \
           "did not produce a valid BENCH_ci.json" >&2
      exit "${rc}"
    elif [[ "${rc}" -ne 0 ]]; then
      echo "ci.sh: bench diff found regressions beyond the fail threshold" >&2
      exit "${rc}"
    fi
  else
    echo "ci.sh: no committed BENCH_PR*.json baseline; skipping diff" >&2
  fi
  echo "==== [bench] check 4-thread speedup gate"
  # >= 1.5x on the best dataset at default scale with 4 threads (the
  # engines are bit-identical across thread counts, so this gate is pure
  # performance). Skipped with a loud note on runners with < 4 CPUs,
  # where the bar is physically unreachable.
  python3 - "${dir}/BENCH_ci.json" <<'EOF'
import json, os, sys
d = json.load(open(sys.argv[1]))
sweep = [r["value"] for r in d["records"]
         if r["metric"].startswith("covar_parallel_speedup/")
         and r["threads"] == 4 and r.get("scale") == 1]
if not sweep:
    sys.exit("bench gate: no default-scale 4-thread sweep records found")
best = max(sweep)
cpus = os.cpu_count() or 1
print(f"bench gate: best 4-thread covar speedup {best:.2f}x on {cpus} CPUs")
if cpus < 4:
    print("bench gate: <4 CPUs, speedup bar not enforceable on this host")
elif best < 1.5:
    sys.exit(f"bench gate: best 4-thread speedup {best:.2f}x < 1.5x")
# Async stream scheduler gate: the 0.5-scale fig4_right run must show the
# watermark-overlapped F-IVM path >= 1.55x over the serial path at 4
# threads (raised from 1.5x now that the speculative compute stage
# pipelines epoch N+1's delta computation over epoch N's propagation; the
# smoke-scale records are excluded — a few-thousand-tuple stream is all
# pipeline startup).
async_ratio = [r["value"] for r in d["records"]
               if r["metric"] == "fivm_async_over_serial"
               and r["threads"] == 4 and r.get("scale") == 0.5]
if async_ratio:
    best_async = max(async_ratio)
    print(f"bench gate: fivm async/serial stream throughput "
          f"{best_async:.2f}x at scale 0.5")
    if cpus < 4:
        print("bench gate: <4 CPUs, async bar not enforceable on this host")
    elif best_async < 1.55:
        sys.exit(f"bench gate: async/serial {best_async:.2f}x < 1.55x")
elif cpus >= 4:
    sys.exit("bench gate: no 4-thread fivm_async_over_serial record at "
             "scale 0.5")
else:
    print("bench gate: <4 CPUs, no enforceable async record (ok)")
# Sharded pipeline gate: at 0.5 scale a 4-shard F-IVM fleet must ingest
# >= 1.3x the unsharded pipeline (intra-op threads pinned to 1 by the
# harness, so the ratio is pure pipeline-level scaling). Like the async
# gate, the bar needs 4 real CPUs to be physically reachable.
shard_ratio = [r["value"] for r in d["records"]
               if r["metric"] == "fivm_sharded4_over_unsharded"
               and r.get("scale") == 0.5]
if shard_ratio:
    best_shard = max(shard_ratio)
    print(f"bench gate: fivm 4-shard/unsharded ingest throughput "
          f"{best_shard:.2f}x at scale 0.5")
    if cpus < 4:
        print("bench gate: <4 CPUs, shard bar not enforceable on this host")
    elif best_shard < 1.3:
        sys.exit(f"bench gate: 4-shard/unsharded {best_shard:.2f}x < 1.3x")
elif cpus >= 4:
    sys.exit("bench gate: no fivm_sharded4_over_unsharded record at "
             "scale 0.5")
else:
    print("bench gate: <4 CPUs, no enforceable shard record (ok)")
# Observability overhead gate: tracing a real ingest run must cost <= 2%
# throughput (best-of-N traced over best-of-N untraced at 0.5 scale; the
# harness already checked the two modes bit-identical before reporting).
obs_ratio = [r["value"] for r in d["records"]
             if r["metric"] == "obs_traced_over_untraced"
             and r.get("scale") == 0.5]
if not obs_ratio:
    sys.exit("bench gate: no obs_traced_over_untraced record at scale 0.5")
best_obs = max(obs_ratio)
print(f"bench gate: traced/untraced ingest throughput {best_obs:.4f}x")
if best_obs < 0.98:
    sys.exit(f"bench gate: tracing overhead {(1 - best_obs):.1%} > 2% "
             f"(traced/untraced {best_obs:.4f}x < 0.98x)")
EOF
fi

echo "==== ci.sh: all requested legs green"
