#!/usr/bin/env bash
# Tier-1 CI: strict-warnings build + tests, an ASan/UBSan build + tests, a
# TSan build of the real-thread runtime tests (thread-mode workers run the
# NodeManager and the worker loop in-process, so TSan sees both), and a
# fault-churn benchmark smoke run.
#
#   tools/ci.sh            # all stages
#   tools/ci.sh strict     # warnings stage only
#   tools/ci.sh asan       # ASan/UBSan stage only
#   tools/ci.sh tsan       # TSan rt_test stage only
#   tools/ci.sh smoke      # fault-churn benchmark smoke only
#   tools/ci.sh zone-smoke # zone-aware vs oblivious placement smoke only
#   tools/ci.sh scaling-smoke # fine-engine throughput, flow-engine growth + pinned result digests + gate self-tests only
#   tools/ci.sh solve-smoke # per-policy Schedule latency + pinned plan digests and Gavel probe counts only
#   tools/ci.sh rt-fault-smoke # worker crash + minidump replay smoke, thread and process workers, only
#   tools/ci.sh serve-smoke # silodd daemon lifecycle + live reload + sjf/gavel replay cross-checks + serve cost growth gate only
#   tools/ci.sh serve-crash-smoke # silodd SIGKILL mid-trace + journal recovery + graceful SIGTERM only
#   tools/ci.sh hetero-smoke # mixed GPU fleet: per-type report partition, uniform-fleet baseline digest, typed silodd replay
#
# Build trees live in build-ci-*/ next to the normal build/ so CI never
# clobbers a developer tree.
set -euo pipefail
cd "$(dirname "$0")/.."

stage="${1:-all}"
jobs="$(nproc 2>/dev/null || echo 4)"

run_stage() {
  local name="$1" dir="$2"
  shift 2
  echo "=== [$name] configure ==="
  cmake -B "$dir" -S . "$@" >/dev/null
  echo "=== [$name] build ==="
  cmake --build "$dir" -j "$jobs"
  echo "=== [$name] test ==="
  ctest --test-dir "$dir" --output-on-failure
}

if [[ "$stage" == "all" || "$stage" == "strict" ]]; then
  # -Wno-restrict: GCC 12's -Wrestrict fires inside libstdc++'s
  # std::string operator+ at -O2 (GCC bug 105651); nothing of ours.
  run_stage strict build-ci-strict \
    -DCMAKE_BUILD_TYPE=Release \
    -DCMAKE_CXX_FLAGS="-Wall -Wextra -Werror -Wno-restrict"
fi

if [[ "$stage" == "all" || "$stage" == "asan" ]]; then
  run_stage asan build-ci-asan \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all" \
    -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address,undefined"
fi

if [[ "$stage" == "all" || "$stage" == "tsan" ]]; then
  # The genuinely concurrent code: the real-thread runtime (scheduler, fault
  # injection, NodeManager handlers, and in thread mode the worker loop
  # itself, talking to its handler over a socketpair).  Build and run just
  # its test under ThreadSanitizer; process-mode cases skip there (fork from
  # a threaded parent), and the simulation engines are single-threaded.
  echo "=== [tsan] configure ==="
  cmake -B build-ci-tsan -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="-fsanitize=thread" \
    -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread" >/dev/null
  echo "=== [tsan] build ==="
  cmake --build build-ci-tsan -j "$jobs" --target rt_test
  echo "=== [tsan] test ==="
  ctest --test-dir build-ci-tsan -R '^rt_test$' --output-on-failure
fi

if [[ "$stage" == "all" || "$stage" == "smoke" ]]; then
  # Fault-churn sweep in smoke mode: both engines survive a seeded crash
  # schedule with every job completing; fails on any lost job.  Bad inputs
  # must exit 2 up front: a gang wider than the cluster, --jobs=0, a numeric
  # flag with trailing junk (--gpus=16x), a trace row with ideal_io_bps=nan
  # (both engines), trace options no trace can be drawn from (--share=2,
  # --gpu-speed=0), zero cache servers, an unknown policy name, a count past
  # the int range (--jobs=4294967297, --gpus=4294967312: no wrap-around), rt
  # micro-trace flags no dataset can be built from (--rt-block-kb=0,
  # --rt-dataset-mb=0, --rt-epochs=-1), and a gpu-type count with trailing
  # junk (count=8x; the same spec with count=8 must run), churn no plan can
  # be generated from (a NaN rate, and a 1e300/h rate, independent or per
  # zone, that used to hang the generator), a non-positive
  # --rt-max-wall-seconds, and a negative --seed or --fault-seed (no wrap to
  # u64).  silod_client --serve-trace --jobs=0 and --seed=-1 must fail on the
  # trace options before they dial the (missing) daemon socket, silodd
  # --servers=0 and a --journal-max-mb whose byte count wraps u64 must refuse
  # to start, and bench_fault_churn must refuse a misspelt flag instead of
  # running.
  echo "=== [smoke] configure ==="
  cmake -B build-ci-smoke -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
  echo "=== [smoke] build ==="
  cmake --build build-ci-smoke -j "$jobs" --target bench_fault_churn silod_sim silod_client \
      silodd
  echo "=== [smoke] run ==="
  ./build-ci-smoke/bench/bench_fault_churn --smoke --out=build-ci-smoke/BENCH_fault_churn.json
  rc=0; ./build-ci-smoke/bench/bench_fault_churn --smok >/dev/null 2>&1 || rc=$?
  [[ "$rc" == 2 ]] || { echo "smoke: bench_fault_churn --smok exited $rc, want 2"; exit 1; }
  wide_trace="build-ci-smoke/wide_job_trace.csv"
  printf '%s\n' "id,name,model,gpus,dataset,dataset_bytes,block_bytes,ideal_io_bps,total_bytes,submit_seconds,regular,curriculum,pacing_start,pacing_alpha,pacing_step" \
      "0,wide,ResNet-50,64,d0,10000000000,64000000,114000000,20000000000,0,1,0,0.04,1.9,50000" \
      > "$wide_trace"
  nan_trace="build-ci-smoke/nan_io_trace.csv"
  sed 's/,114000000,/,nan,/' "$wide_trace" > "$nan_trace"
  for args in "--engine=fine --trace=$wide_trace --gpus=16" \
              "--engine=flow --trace=$wide_trace --gpus=16" "--jobs=0" "--gpus=16x" \
              "--engine=fine --trace=$nan_trace --gpus=64" \
              "--engine=flow --trace=$nan_trace --gpus=64" "--share=2" "--gpu-speed=0" \
              "--engine=fine --servers=0" "--policy=lifo+silod" "--jobs=4294967297" \
              "--gpus=4294967312" "--engine=rt --rt-jobs=1 --gpus=8 --rt-block-kb=0" \
              "--engine=rt --rt-jobs=1 --gpus=8 --rt-dataset-mb=0" \
              "--engine=rt --rt-jobs=1 --gpus=8 --rt-epochs=-1" \
              "--jobs=5 --fault-server-crashes-per-hour=nan" \
              "--jobs=5 --fault-server-crashes-per-hour=1e300" \
              "--jobs=5 --fault-zone=zone=r0:servers=0-1:crashes-per-hour=1e300" \
              "--engine=rt --rt-jobs=1 --gpus=8 --rt-max-wall-seconds=-1" \
              "--jobs=5 --seed=-1" "--jobs=5 --fault-seed=-1"; do
    rc=0; timeout 60 ./build-ci-smoke/tools/silod_sim $args >/dev/null 2>&1 || rc=$?
    [[ "$rc" == 2 ]] || { echo "smoke: silod_sim $args exited $rc, want 2"; exit 1; }
  done
  missing_socket="build-ci-smoke/no-such-silodd.sock"
  rm -f "$missing_socket"
  rc=0; timeout 60 ./build-ci-smoke/tools/silod_client --socket="$missing_socket" \
      --serve-trace --jobs=0 >/dev/null 2>build-ci-smoke/client.err || rc=$?
  [[ "$rc" == 2 ]] && grep -q 'num_jobs' build-ci-smoke/client.err \
      && ! grep -q 'connect' build-ci-smoke/client.err \
      || { echo "smoke: silod_client --serve-trace --jobs=0 exited $rc, want 2 before connecting"; exit 1; }
  rc=0; timeout 60 ./build-ci-smoke/tools/silod_client --socket="$missing_socket" \
      --serve-trace --seed=-1 >/dev/null 2>build-ci-smoke/client.err || rc=$?
  [[ "$rc" == 2 ]] && grep -q 'seed' build-ci-smoke/client.err \
      && ! grep -q 'connect' build-ci-smoke/client.err \
      || { echo "smoke: silod_client --serve-trace --seed=-1 exited $rc, want 2 before connecting"; exit 1; }
  rc=0; timeout 60 ./build-ci-smoke/tools/silodd --socket="$missing_socket" --servers=0 \
      >/dev/null 2>&1 || rc=$?
  [[ "$rc" == 2 ]] || { echo "smoke: silodd --servers=0 exited $rc, want 2"; exit 1; }
  [[ ! -e "$missing_socket" ]] || { echo "smoke: silodd --servers=0 bound its socket"; exit 1; }
  rc=0; timeout 60 ./build-ci-smoke/tools/silodd --socket="$missing_socket" \
      --journal=build-ci-smoke/wrap.wal --journal-max-mb=17592186044416 >/dev/null 2>&1 || rc=$?
  [[ "$rc" == 2 ]] || { echo "smoke: silodd --journal-max-mb=2^44 exited $rc, want 2"; exit 1; }
  [[ ! -e "$missing_socket" ]] || { echo "smoke: silodd --journal-max-mb=2^44 bound its socket"; exit 1; }
  for count in 8x 8; do
    rc=0; timeout 60 ./build-ci-smoke/tools/silod_sim --gpus=8 \
        --topology="gpu-type name=v100 count=$count speed=1" >/dev/null 2>&1 || rc=$?
    want=$([[ "$count" == 8 ]] && echo 0 || echo 2)
    [[ "$rc" == "$want" ]] || { echo "smoke: count=$count exited $rc, want $want"; exit 1; }
  done
fi

if [[ "$stage" == "all" || "$stage" == "zone-smoke" ]]; then
  # Zone-aware placement smoke: a short zone-crash plan under both placements
  # (equal cache totals, identical crash schedule).  bench_fault_churn --smoke
  # asserts zone-aware loses strictly fewer cached bytes than zone-oblivious
  # with no-worse avg JCT, and exits non-zero otherwise; silod_sim exercises
  # the CLI topology path end to end (zone losses must be reported).
  echo "=== [zone-smoke] configure ==="
  cmake -B build-ci-smoke -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
  echo "=== [zone-smoke] build ==="
  cmake --build build-ci-smoke -j "$jobs" --target bench_fault_churn silod_sim
  echo "=== [zone-smoke] run ==="
  ./build-ci-smoke/bench/bench_fault_churn --smoke --out=build-ci-smoke/BENCH_zone_smoke.json
  ./build-ci-smoke/tools/silod_sim --jobs=12 --servers=8 \
      --fault-zone="zone=rack0:servers=0-3:crashes-per-hour=2" \
      --zone-loss-bound=0.25 --seed=7 \
      | grep -q "rack0=" || { echo "zone-smoke: no per-zone loss reported"; exit 1; }
fi

if [[ "$stage" == "all" || "$stage" == "scaling-smoke" ]]; then
  # Engine-scaling smoke: a short 4k-job sweep plus the flow-engine rows at
  # 2048 and 8192 jobs.  With --baseline, bench_engine_scaling fails on a row
  # whose ResultDigest or event count differs from the committed
  # BENCH_engine_scaling.json (exact: the fine engine's stepping is pinned
  # bit-for-bit), on more flow visits or peak block slots than committed
  # (exact work and memory counters), on calendar events/sec more than 30%
  # below the committed value, and when the flow engine's wall time per job at 8192 jobs is more
  # than twice that at 2048 (both timed in this run).  The self-tests run
  # before that run, so a host too slow for the events/sec bound still runs
  # every exact check before the bound can stop the stage (set -e): each
  # bench must exit 1 with a FAIL: line against a baseline with one digest
  # altered (a digest failure; for the scaling bench a calendar row's
  # and a flow row's), against the other bench's committed file, against its
  # own file cut to 200 bytes, against an empty file, and against a copy
  # with one gated field deleted; the scaling bench also against copies with
  # calendar/64-jobs' flow_visits, or its peak_block_slots (the most
  # epoch-order entries plus cache generation slots held at once), or
  # flow/2048-jobs' allocations (heap allocations during the row's run),
  # lowered by one; a NaN --max-regress or a
  # malformed --sizes entry must exit 2.  The self-tests time each row once
  # (--repeats=1) to stay short.
  echo "=== [scaling-smoke] configure ==="
  cmake -B build-ci-smoke -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
  echo "=== [scaling-smoke] build ==="
  cmake --build build-ci-smoke -j "$jobs" --target bench_engine_scaling bench_sched_solve
  echo "=== [scaling-smoke] gate self-tests ==="
  altered_scaling="build-ci-smoke/BENCH_engine_scaling.altered.json"
  sed '/"label": "calendar\/64-jobs"/,/"digest"/ s/"digest": "[0-9a-f]*"/"digest": "0000000000000000"/' \
      BENCH_engine_scaling.json > "$altered_scaling"
  altered_solve="build-ci-smoke/BENCH_sched_solve.altered.json"
  sed '/"cell": "fifo+silod\/64"/ s/"digest": "[0-9a-f]*"/"digest": "0000000000000000"/' \
      BENCH_sched_solve.json > "$altered_solve"
  altered_flow="build-ci-smoke/BENCH_engine_scaling.altered_flow.json"
  sed '/"label": "flow\/2048-jobs"/,/"digest"/ s/"digest": "[0-9a-f]*"/"digest": "0000000000000000"/' \
      BENCH_engine_scaling.json > "$altered_flow"
  ! cmp -s BENCH_engine_scaling.json "$altered_scaling" \
      || { echo "scaling-smoke: no engine-scaling digest to alter"; exit 1; }
  ! cmp -s BENCH_engine_scaling.json "$altered_flow" \
      || { echo "scaling-smoke: no flow-row digest to alter"; exit 1; }
  ! cmp -s BENCH_sched_solve.json "$altered_solve" \
      || { echo "scaling-smoke: no sched-solve digest to alter"; exit 1; }
  scaling="bench_engine_scaling --sizes=64 --no-philly --repeats=1 --out=build-ci-smoke/BENCH_self_test.json"
  solve="bench_sched_solve --policies=fifo+silod --sizes=64 --out=build-ci-smoke/BENCH_self_test.json"
  for cmd in "$scaling --baseline=$altered_scaling" "$solve --baseline=$altered_solve"; do
    rc=0; ./build-ci-smoke/bench/$cmd >/dev/null 2>build-ci-smoke/self_test.err || rc=$?
    [[ "$rc" == 1 ]] && grep -q 'FAIL: .*digest' build-ci-smoke/self_test.err \
        || { echo "scaling-smoke: $cmd exited $rc without a digest failure, want 1"; exit 1; }
  done
  flow_cmd="$scaling --baseline=$altered_flow"
  rc=0; ./build-ci-smoke/bench/$flow_cmd >/dev/null 2>build-ci-smoke/self_test.err || rc=$?
  [[ "$rc" == 1 ]] && grep -q '^FAIL: flow/2048-jobs result digest' build-ci-smoke/self_test.err \
      || { echo "scaling-smoke: $flow_cmd exited $rc without the flow row's digest failure, want 1"; exit 1; }
  for row_counter in calendar/64-jobs:flow_visits calendar/64-jobs:peak_block_slots \
                     flow/2048-jobs:allocations; do
    label="${row_counter%%:*}" counter="${row_counter#*:}"
    lowered="build-ci-smoke/BENCH_engine_scaling.lowered_$counter.json"
    awk -v label="\"label\": \"$label\"" -v key="\"$counter\": " \
        'index($0, label) { row = 1 }
         row && match($0, key "[0-9]+") {
           value = substr($0, RSTART + length(key), RLENGTH - length(key))
           $0 = substr($0, 1, RSTART - 1) key (value - 1) substr($0, RSTART + RLENGTH)
           row = 0
         }
         { print }' BENCH_engine_scaling.json > "$lowered"
    ! cmp -s BENCH_engine_scaling.json "$lowered" \
        || { echo "scaling-smoke: no $label $counter to lower"; exit 1; }
    rc=0; ./build-ci-smoke/bench/$scaling --baseline="$lowered" \
        >/dev/null 2>build-ci-smoke/self_test.err || rc=$?
    [[ "$rc" == 1 ]] && grep -q "^FAIL: $label $counter" build-ci-smoke/self_test.err \
        || { echo "scaling-smoke: a lowered $label $counter exited $rc without its FAIL: line, want 1"; exit 1; }
  done
  empty="build-ci-smoke/BENCH_empty.json"
  : > "$empty"
  for bench in engine_scaling sched_solve; do
    head -c 200 "BENCH_$bench.json" > "build-ci-smoke/BENCH_$bench.cut.json"
  done
  # One gated field deleted from a row the self-test run produces, leaving
  # valid JSON: calendar/64-jobs' calendar_events_per_s (its last field, so
  # the line before loses its comma), and fifo+silod/64's p50_us.
  sed '/"label": "calendar\/64-jobs"/,/"calendar_events_per_s"/ {
         /"calendar_wall_s"/ s/,$//
         /"calendar_events_per_s"/d
       }' BENCH_engine_scaling.json > build-ci-smoke/BENCH_engine_scaling.nofield.json
  sed '/"cell": "fifo+silod\/64"/ s/"p50_us": [0-9.]*, //' \
      BENCH_sched_solve.json > build-ci-smoke/BENCH_sched_solve.nofield.json
  for bench in engine_scaling sched_solve; do
    ! cmp -s "BENCH_$bench.json" "build-ci-smoke/BENCH_$bench.nofield.json" \
        || { echo "scaling-smoke: no $bench field to delete"; exit 1; }
  done
  for cmd in "$scaling --baseline=BENCH_sched_solve.json" \
             "$scaling --baseline=build-ci-smoke/BENCH_engine_scaling.cut.json" \
             "$scaling --baseline=$empty" \
             "$scaling --baseline=build-ci-smoke/BENCH_engine_scaling.nofield.json" \
             "$solve --baseline=BENCH_engine_scaling.json" \
             "$solve --baseline=build-ci-smoke/BENCH_sched_solve.cut.json" \
             "$solve --baseline=$empty" \
             "$solve --baseline=build-ci-smoke/BENCH_sched_solve.nofield.json"; do
    rc=0; ./build-ci-smoke/bench/$cmd >/dev/null 2>build-ci-smoke/self_test.err || rc=$?
    [[ "$rc" == 1 ]] && grep -q '^FAIL: ' build-ci-smoke/self_test.err \
        || { echo "scaling-smoke: $cmd exited $rc without a FAIL: line, want 1"; exit 1; }
  done
  for cmd in "$scaling" "$solve"; do
    for bad in --max-regress=nan --sizes=64x; do
      rc=0; ./build-ci-smoke/bench/$cmd $bad >/dev/null 2>&1 || rc=$?
      [[ "$rc" == 2 ]] || { echo "scaling-smoke: $cmd $bad exited $rc, want 2"; exit 1; }
    done
  done
  echo "=== [scaling-smoke] run ==="
  ./build-ci-smoke/bench/bench_engine_scaling --sizes=4096 --no-philly \
      --baseline=BENCH_engine_scaling.json --max-regress=0.3 \
      --out=build-ci-smoke/BENCH_engine_scaling.json
fi

if [[ "$stage" == "all" || "$stage" == "solve-smoke" ]]; then
  # Scheduler-solve smoke: Schedule latency per registry policy at 64-4096
  # active jobs on frozen snapshots.  bench_sched_solve --baseline fails on
  # any plan digest that differs from the committed BENCH_sched_solve.json
  # (the solvers' output is pinned bit-for-bit), on a gavel+silod cell that
  # makes more fairness or throttle probes than committed (exact counters),
  # and on any cell whose p50 is more than 30% slower than committed in three
  # attempts.  The gavel+silod/sequence cell (one scheduler solving a seeded
  # series of perturbed snapshots, so each search starts warm) fails on a
  # different series digest, on more probes than committed and on any plan
  # that differs from a fresh scheduler's.  Then the self-test: against a
  # copy with gavel+silod/64's or gavel+silod/sequence's fair_probes, or its
  # throttle_probes, lowered by one, the gate must exit 1 with a FAIL: line
  # naming the cell and the count.
  echo "=== [solve-smoke] configure ==="
  cmake -B build-ci-smoke -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
  echo "=== [solve-smoke] build ==="
  cmake --build build-ci-smoke -j "$jobs" --target bench_sched_solve
  echo "=== [solve-smoke] run ==="
  ./build-ci-smoke/bench/bench_sched_solve \
      --baseline=BENCH_sched_solve.json --max-regress=0.3 \
      --out=build-ci-smoke/BENCH_sched_solve.json
  echo "=== [solve-smoke] gate self-test ==="
  for cell in gavel+silod/64 gavel+silod/sequence; do
    for field in fair_probes throttle_probes; do
      lowered="build-ci-smoke/BENCH_sched_solve.$field.json"
      awk -v cell="\"cell\": \"$cell\"" -v field="$field" 'index($0, cell) {
             pattern = "\"" field "\": [0-9]+"
             if (match($0, pattern)) {
               split(substr($0, RSTART, RLENGTH), kv, ": ")
               $0 = substr($0, 1, RSTART - 1) "\"" field "\": " (kv[2] - 1) substr($0, RSTART + RLENGTH)
             }
           }
           { print }' BENCH_sched_solve.json > "$lowered"
      ! cmp -s BENCH_sched_solve.json "$lowered" \
          || { echo "solve-smoke: no $cell $field to lower"; exit 1; }
      rc=0; ./build-ci-smoke/bench/bench_sched_solve --policies=gavel+silod --sizes=64 \
          --baseline="$lowered" --out=build-ci-smoke/BENCH_self_test.json \
          >/dev/null 2>build-ci-smoke/self_test.err || rc=$?
      [[ "$rc" == 1 ]] && grep -q "^FAIL: $cell $field" build-ci-smoke/self_test.err \
          || { echo "solve-smoke: a lowered $cell $field exited $rc without its FAIL: line, want 1"; exit 1; }
    done
  done
fi

if [[ "$stage" == "all" || "$stage" == "rt-fault-smoke" ]]; then
  # Worker crash smoke under ASan, once per worker mode: kill a live worker
  # mid-run via the fault plan (a real SIGKILL in process mode, a socket
  # shutdown in thread mode), assert the run completes with correct
  # accounting (silod_sim exits non-zero on a timeout, an unfinished job or a
  # completion-invariant violation), a minidump was emitted, and silod_replay
  # re-executes its window bit-identically.
  echo "=== [rt-fault-smoke] configure ==="
  cmake -B build-ci-rt -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all" \
    -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address,undefined" >/dev/null
  echo "=== [rt-fault-smoke] build ==="
  cmake --build build-ci-rt -j "$jobs" --target silod_sim silod_replay
  for processes in true false; do
    echo "=== [rt-fault-smoke] run, --workers-processes=$processes ==="
    dump_dir="build-ci-rt/rt-minidumps-processes-$processes"
    json="build-ci-rt/rt_smoke-processes-$processes.json"
    rm -rf "$dump_dir"
    ./build-ci-rt/tools/silod_sim --engine=rt --workers-processes="$processes" \
        --rt-jobs=2 --rt-epochs=12 --gpus=8 --cache-tb=0.001 --egress-gbps=0.2 \
        --restart-cost=checkpoint-interval:4 \
        --fault-plan="worker-crash t=0.3 job=0 restart=0.3" \
        --minidump-dir="$dump_dir" --rt-max-wall-seconds=30 \
        --json="$json"
    grep -q '"worker_crashes": 1' "$json" \
        || { echo "rt-fault-smoke ($processes): crash not accounted"; exit 1; }
    grep -q '"worker_restarts": 1' "$json" \
        || { echo "rt-fault-smoke ($processes): restart not accounted"; exit 1; }
    dump="$(ls "$dump_dir"/minidump-*.txt 2>/dev/null | head -n1)"
    [[ -n "$dump" ]] || { echo "rt-fault-smoke ($processes): no minidump emitted"; exit 1; }
    ./build-ci-rt/tools/silod_replay "$dump"
  done
fi

if [[ "$stage" == "all" || "$stage" == "serve-smoke" ]]; then
  # silodd lifecycle smoke: start the daemon, drive it through submit /
  # complete / stats / live reload-policy / shutdown with silod_client, then
  # replay a generated trace over the socket and require the daemon's JCT
  # summary to match the batch flow engine bit-for-bit (--check exits 1
  # otherwise).  `set -e` turns any failed step into a stage failure.
  echo "=== [serve-smoke] configure ==="
  cmake -B build-ci-smoke -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
  echo "=== [serve-smoke] build ==="
  cmake --build build-ci-smoke -j "$jobs" --target silodd silod_client bench_serve_replay
  echo "=== [serve-smoke] run ==="
  sock="build-ci-smoke/serve-smoke.sock"
  client="./build-ci-smoke/tools/silod_client"
  rm -f "$sock"
  ./build-ci-smoke/tools/silodd --socket="$sock" --policy=fifo+silod \
      --gpus=8 --cache-tb=2 --egress-gbps=1.6 --max-gpu-load=1e18 &
  silodd_pid=$!
  trap 'kill "$silodd_pid" 2>/dev/null || true' EXIT
  for _ in $(seq 50); do [[ -S "$sock" ]] && break; sleep 0.1; done
  [[ -S "$sock" ]] || { echo "serve-smoke: daemon never bound $sock"; exit 1; }

  "$client" --socket="$sock" submit key=smoke1 t=0 gpus=2 ideal-io=100e6 \
      total-bytes=1000000000000 dataset=smoke-ds dataset-size=150000000000 \
      | grep -q "decision=admitted" \
      || { echo "serve-smoke: submit not admitted"; exit 1; }
  "$client" --socket="$sock" complete key=smoke1 t=600 \
      | grep -q "state=completed" \
      || { echo "serve-smoke: complete failed"; exit 1; }
  "$client" --socket="$sock" --json stats \
      | grep -q '"completed": "1"' \
      || { echo "serve-smoke: stats did not count the completion"; exit 1; }

  # Live reload: swap the scheduler x cache pair without restarting and prove
  # the daemon is now planning with the new pair (coordl = per-job-static
  # cache model, not silod's dataset-quota).
  "$client" --socket="$sock" reload-policy policy=sjf+coordl \
      | grep -q "policy=sjf+coordl" \
      || { echo "serve-smoke: reload-policy failed"; exit 1; }
  "$client" --socket="$sock" plan \
      | grep -q "cache-model=per-job-static" \
      || { echo "serve-smoke: plan still on the old cache model after reload"; exit 1; }
  "$client" --socket="$sock" shutdown \
      | grep -q "state=shutting-down" \
      || { echo "serve-smoke: shutdown refused"; exit 1; }
  wait "$silodd_pid" || { echo "serve-smoke: daemon exited non-zero"; exit 1; }
  trap - EXIT
  [[ ! -S "$sock" ]] || { echo "serve-smoke: socket left behind"; exit 1; }

  # Bad storage flags are refused at startup too: a negative egress would
  # otherwise abort the Gavel solve on the first submit.
  rc=0
  ./build-ci-smoke/tools/silodd --socket="$sock" --policy=gavel+silod --egress-gbps=-1 \
      2>/dev/null || rc=$?
  [[ "$rc" == 2 ]] || { echo "serve-smoke: --egress-gbps=-1 exited $rc, want 2"; exit 1; }

  # Replay a trace through a fresh daemon (the report covers every job the
  # daemon ever saw, so the cross-check needs an empty table); --check
  # verifies the daemon's JCT summary against the local batch flow engine
  # bit-for-bit and exits 1 on any divergence.
  ./build-ci-smoke/tools/silodd --socket="$sock" --policy=sjf+silod \
      --gpus=8 --cache-tb=2 --egress-gbps=1.6 --max-gpu-load=1e18 &
  silodd_pid=$!
  trap 'kill "$silodd_pid" 2>/dev/null || true' EXIT
  for _ in $(seq 50); do [[ -S "$sock" ]] && break; sleep 0.1; done
  [[ -S "$sock" ]] || { echo "serve-smoke: replay daemon never bound $sock"; exit 1; }
  "$client" --socket="$sock" --serve-trace --check --jobs=25 --seed=3 \
      --policy=sjf+silod --gpus=8 --cache-tb=2 --egress-gbps=1.6 \
      > build-ci-smoke/serve_smoke_report.json
  "$client" --socket="$sock" shutdown >/dev/null
  wait "$silodd_pid" || { echo "serve-smoke: replay daemon exited non-zero"; exit 1; }
  trap - EXIT

  # The same cross-check for the Gavel solver.
  ./build-ci-smoke/tools/silodd --socket="$sock" --policy=gavel+silod \
      --gpus=8 --cache-tb=2 --egress-gbps=1.6 --max-gpu-load=1e18 &
  silodd_pid=$!
  trap 'kill "$silodd_pid" 2>/dev/null || true' EXIT
  for _ in $(seq 50); do [[ -S "$sock" ]] && break; sleep 0.1; done
  [[ -S "$sock" ]] || { echo "serve-smoke: gavel daemon never bound $sock"; exit 1; }
  "$client" --socket="$sock" --serve-trace --check --jobs=25 --seed=3 \
      --policy=gavel+silod --gpus=8 --cache-tb=2 --egress-gbps=1.6 \
      > build-ci-smoke/serve_smoke_gavel_report.json \
      || { echo "serve-smoke: gavel daemon diverged from the batch engine"; exit 1; }
  "$client" --socket="$sock" shutdown >/dev/null
  wait "$silodd_pid" || { echo "serve-smoke: gavel daemon exited non-zero"; exit 1; }
  trap - EXIT

  # Per-request cost bounded by live state: replay 1k- and 16k-job histories
  # in-process (sjf+silod and gavel+silod, about 2 s); the stats p99 and the
  # write p50 at 16k may be at most twice their 1k values in the same run.
  ./build-ci-smoke/bench/bench_serve_replay --baseline=BENCH_serve.json \
      --out=build-ci-smoke/BENCH_serve.json \
      || { echo "serve-smoke: serve replay gate failed"; exit 1; }
fi

if [[ "$stage" == "all" || "$stage" == "serve-crash-smoke" ]]; then
  # Crash-injection smoke (docs/MODEL.md §12): start silodd with a write-ahead
  # journal, replay HALF a trace over the socket (monotone rid= tags), SIGKILL
  # the daemon mid-run, restart it over the same journal, then replay the FULL
  # trace — the recovered daemon must dedupe the already-applied prefix and
  # the final report must match the batch flow engine bit-for-bit (--check
  # exits 1 on any divergence).  Finishes with a graceful-SIGTERM check: exit
  # code 0 and the socket file unlinked.
  echo "=== [serve-crash-smoke] configure ==="
  cmake -B build-ci-smoke -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
  echo "=== [serve-crash-smoke] build ==="
  cmake --build build-ci-smoke -j "$jobs" --target silodd silod_client
  echo "=== [serve-crash-smoke] run ==="
  sock="build-ci-smoke/serve-crash.sock"
  wal="build-ci-smoke/serve-crash.wal"
  client="./build-ci-smoke/tools/silod_client"
  daemon_flags=(--socket="$sock" --policy=sjf+silod --gpus=8 --cache-tb=2
                --egress-gbps=1.6 --max-gpu-load=1e18
                --journal="$wal" --journal-sync=batch:8)
  trace_flags=(--jobs=20 --seed=3 --policy=sjf+silod --gpus=8 --cache-tb=2
               --egress-gbps=1.6)
  rm -f "$sock" "$wal"

  ./build-ci-smoke/tools/silodd "${daemon_flags[@]}" &
  silodd_pid=$!
  trap 'kill -9 "$silodd_pid" 2>/dev/null || true' EXIT
  for _ in $(seq 50); do [[ -S "$sock" ]] && break; sleep 0.1; done
  [[ -S "$sock" ]] || { echo "serve-crash-smoke: daemon never bound $sock"; exit 1; }

  # Half the trace (20 jobs = 40 submit/complete events), then SIGKILL.
  "$client" --socket="$sock" --serve-trace --max-events=20 "${trace_flags[@]}" \
      || { echo "serve-crash-smoke: half-trace replay failed"; exit 1; }
  kill -9 "$silodd_pid"
  wait "$silodd_pid" 2>/dev/null || true
  rm -f "$sock"  # SIGKILL never unlinks; the restart rebinds.

  # Restart over the same journal: the banner must report the replay, and the
  # full-trace re-replay (same rids) must dedupe the prefix and cross-check
  # bit-for-bit against the batch engine.
  ./build-ci-smoke/tools/silodd "${daemon_flags[@]}" \
      2> build-ci-smoke/serve_crash_recovery.log &
  silodd_pid=$!
  trap 'kill -9 "$silodd_pid" 2>/dev/null || true' EXIT
  for _ in $(seq 50); do [[ -S "$sock" ]] && break; sleep 0.1; done
  [[ -S "$sock" ]] || { echo "serve-crash-smoke: recovered daemon never bound $sock"; exit 1; }
  grep -q "request(s) replayed" build-ci-smoke/serve_crash_recovery.log \
      || { echo "serve-crash-smoke: no recovery banner"; exit 1; }
  "$client" --socket="$sock" --serve-trace --check --retries=3 "${trace_flags[@]}" \
      > build-ci-smoke/serve_crash_report.json \
      || { echo "serve-crash-smoke: recovered daemon diverged from the batch engine"; exit 1; }
  "$client" --socket="$sock" --json stats | grep -q '"recovered-requests": "20"' \
      || { echo "serve-crash-smoke: expected 20 replayed requests"; exit 1; }

  # Graceful SIGTERM: drain, sync the journal, unlink the socket, exit 0.
  kill -TERM "$silodd_pid"
  wait "$silodd_pid" || { echo "serve-crash-smoke: SIGTERM exit was non-zero"; exit 1; }
  trap - EXIT
  [[ ! -S "$sock" ]] || { echo "serve-crash-smoke: socket left behind after SIGTERM"; exit 1; }
fi

if [[ "$stage" == "all" || "$stage" == "hetero-smoke" ]]; then
  # Heterogeneous-fleet smoke (docs/MODEL.md §13).  Three invariants:
  #   1. a mixed fleet produces a v2 report whose per-GPU-type summaries
  #      partition the finished jobs (counts sum to jct.finished), on both
  #      engines;
  #   2. declaring no GPU types leaves the canonical run's report verbatim —
  #      its sha256 must equal the committed BASELINE_hetero_uniform.sha256 —
  #      and declaring an all-speed-1.0 table reproduces that run's JCT
  #      distribution bit-for-bit;
  #   3. a typed silodd replays a trace bit-identically to the typed batch
  #      engine (silod_client --check exits 1 on any divergence).
  echo "=== [hetero-smoke] configure ==="
  cmake -B build-ci-smoke -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
  echo "=== [hetero-smoke] build ==="
  cmake --build build-ci-smoke -j "$jobs" --target silod_sim silodd silod_client
  echo "=== [hetero-smoke] run ==="
  sim="./build-ci-smoke/tools/silod_sim"
  base_flags=(--policy=sjf+silod --jobs=40 --gpus=16 --cache-tb=1
              --egress-gbps=2 --seed=7)

  for engine in flow fine; do
    "$sim" --engine="$engine" "${base_flags[@]}" --gpu-types=v100:8:1,k80:8:0.5 \
        --json="build-ci-smoke/hetero_${engine}.json" >/dev/null
    python3 - "build-ci-smoke/hetero_${engine}.json" <<'PY'
import json, sys
r = json.load(open(sys.argv[1]))
assert r["report_version"] == 2, "not a v2 report"
groups = r.get("gpu_types", {})
assert set(groups) == {"v100", "k80"}, f"missing per-type groups: {sorted(groups)}"
total = sum(g["finished"] for g in groups.values())
assert total == r["jct"]["finished"], f"type partition broken: {total} != {r['jct']['finished']}"
for name, g in groups.items():
    assert g["finished"] > 0, f"empty group {name}"
PY
  done

  "$sim" --engine=flow "${base_flags[@]}" \
      --json=build-ci-smoke/hetero_uniform.json >/dev/null
  sha256sum build-ci-smoke/hetero_uniform.json | awk '{print $1}' \
      > build-ci-smoke/hetero_uniform.sha256
  diff BASELINE_hetero_uniform.sha256 build-ci-smoke/hetero_uniform.sha256 \
      || { echo "hetero-smoke: uniform-fleet report drifted from the committed baseline"; exit 1; }
  "$sim" --engine=flow "${base_flags[@]}" --gpu-types=any:16:1 \
      --json=build-ci-smoke/hetero_uniform_typed.json >/dev/null
  python3 - build-ci-smoke/hetero_uniform.json build-ci-smoke/hetero_uniform_typed.json <<'PY'
import json, sys
a, b = (json.load(open(p)) for p in sys.argv[1:3])
assert a["jct"] == b["jct"], "all-speed-1.0 fleet diverged from the untyped run"
assert a["makespan_min"] == b["makespan_min"], "makespan diverged"
PY

  # Pools must be at least as wide as the trace's largest gang (8 GPUs) —
  # gang scheduling never splits a job across type pools.
  sock="build-ci-smoke/hetero-smoke.sock"
  topo="gpu-type name=v100 count=10 speed=1;gpu-type name=k80 count=6 speed=0.5"
  rm -f "$sock"
  ./build-ci-smoke/tools/silodd --socket="$sock" --policy=sjf+silod \
      --gpus=16 --cache-tb=2 --egress-gbps=1.6 --max-gpu-load=1e18 \
      --topology="$topo" &
  silodd_pid=$!
  trap 'kill "$silodd_pid" 2>/dev/null || true' EXIT
  for _ in $(seq 50); do [[ -S "$sock" ]] && break; sleep 0.1; done
  [[ -S "$sock" ]] || { echo "hetero-smoke: daemon never bound $sock"; exit 1; }
  ./build-ci-smoke/tools/silod_client --socket="$sock" --serve-trace --check \
      --jobs=25 --seed=3 --policy=sjf+silod --gpus=16 --cache-tb=2 \
      --egress-gbps=1.6 --topology="$topo" \
      > build-ci-smoke/hetero_serve_report.json \
      || { echo "hetero-smoke: typed daemon diverged from the typed batch engine"; exit 1; }
  grep -q '"gpu_types"' build-ci-smoke/hetero_serve_report.json \
      || { echo "hetero-smoke: daemon report lacks the per-type breakdown"; exit 1; }
  # --json output must be JSON, even with the multi-line report inside it.
  ./build-ci-smoke/tools/silod_client --socket="$sock" --json report \
      | python3 -c 'import json,sys; json.load(sys.stdin)' \
      || { echo "hetero-smoke: silod_client --json report is not valid JSON"; exit 1; }
  ./build-ci-smoke/tools/silod_client --socket="$sock" shutdown >/dev/null
  wait "$silodd_pid" || { echo "hetero-smoke: daemon exited non-zero"; exit 1; }
  trap - EXIT
fi

echo "CI OK"
