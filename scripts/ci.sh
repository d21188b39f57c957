#!/usr/bin/env sh
# Repository gate: vet, build, race-clean tests, and a benchmark smoke run.
# Usage: scripts/ci.sh [quick]
#   quick  skips the race detector pass (slow on small machines).
set -eu
cd "$(dirname "$0")/.."

# CI must leave the tree as it found it: the tracked baseline trajectory is
# checked against this sum at the end.
traj=BENCH_lb_baseline.json.trajectory.jsonl
trajsum=$(cksum <"$traj")

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

# Inline gate: conservative PDES peeks the engine's heap once per window,
# and the peek is only cheap while NextEventAt, and the fabric's
# nextActivity around it, inline into the window loop (fleet16 ran about 4%
# slower when they stopped inlining). Every sift compares entries with lt
# and every pop and settle tests the root with live; an lt that took
# pointers spilled the sifted entry and cost about 40%. A kernel change
# that pushes any of them over the inline budget must fail here, not only
# in a benchmark.
echo "== inline gate (NextEventAt, nextActivity, lt, live) =="
inl=$(go build -gcflags=-m ./internal/sim ./internal/pdes 2>&1)
for fn in '(\*Engine).NextEventAt' '(\*Fabric).nextActivity' 'lt' '(\*Engine).live'; do
    if ! printf '%s\n' "$inl" | grep -q "can inline $fn\$"; then
        echo "$fn no longer inlines" >&2; exit 1
    fi
done
echo "NextEventAt, nextActivity, lt and live inline"

if [ "${1:-}" = "quick" ]; then
    echo "== go test (short) =="
    go test -short ./...
else
    echo "== go test =="
    go test ./...
    echo "== go test -race =="
    # Single-digit-core CI hosts run the heavy packages close to the default
    # 10m per-package budget under the race detector; give them headroom.
    go test -race -timeout 30m ./...
fi

# The observability merge/stitch path, the sweep runner, the cell cache, the
# streaming-telemetry layer, the PDES fabric, and the coupled fleet carry
# the repo's determinism/race contracts; race-check them on every run,
# quick included. The fleet package includes the cross-server trace-stitching
# tests (TestFleetStitchedTracing, TestStitchedObsShardWorkerDeterminism),
# which exercise obs.Merge on coupled fleets. Machines keep
# invocation and RQ-entry free lists that outlive single requests, and sweep
# workers run machines concurrently, so machine and rq are race-checked too:
# a free list shared by mistake must fail here. The live -serve endpoints
# (internal/cli) read published runs from HTTP handler goroutines.
echo "== go test -race (obs + sweep + sweepcache + telemetry + cli + pdes + fleet + control + whatif + svcgraph + machine + rq) =="
go test -race -short ./internal/obs/... ./internal/sweep/... ./internal/sweepcache/... ./internal/telemetry/... ./internal/cli/... ./internal/pdes/... ./internal/fleet/... ./internal/control/... ./internal/whatif/... ./internal/svcgraph/... ./internal/machine/... ./internal/rq/...

# Cache gate: a cold run must fill the cache, a warm run must reuse it, a
# verify run must recompute without a single byte of drift — and all three
# must print byte-identical figures. The figure set runs every cell type but
# two: runCell (e2e), p99Cell (Fig 20), fig9Side (Fig 9) and fleetCell (lb,
# and control's controlled fleets); the Go cache battery covers
# fig18Search and the what-if grid cell. The
# warm pass must hit every cell the cold pass stored, with no misses: a
# payload that fails its decode check reads as a miss and fails here. This
# is the end-to-end version of the determinism battery, through the real CLI.
echo "== sweep cache cold/warm/verify =="
cachedir=$(mktemp -d)
trap 'rm -rf "$cachedir"' EXIT
go build -o "$cachedir/umbench" ./cmd/umbench
cachefigs=lb,e2e,9,20,control
"$cachedir/umbench" -quick -figures "$cachefigs" -cache "$cachedir/cells" \
    >"$cachedir/cold.out" 2>"$cachedir/cold.err"
"$cachedir/umbench" -quick -figures "$cachefigs" -cache "$cachedir/cells" \
    >"$cachedir/warm.out" 2>"$cachedir/warm.err"
"$cachedir/umbench" -quick -figures "$cachefigs" -cache "$cachedir/cells" -cache-verify \
    >"$cachedir/verify.out" 2>"$cachedir/verify.err"
cmp "$cachedir/cold.out" "$cachedir/warm.out"
cmp "$cachedir/cold.out" "$cachedir/verify.out"
stored=$(sed -n 's/^\[cache .*: [0-9]* hits, [0-9]* misses, \([0-9]*\) stores,.*/\1/p' "$cachedir/cold.err")
if [ -z "$stored" ] || [ "$stored" -eq 0 ] ||
    ! grep -q "^\[cache .*: $stored hits, 0 misses," "$cachedir/warm.err"; then
    grep '^\[cache' "$cachedir/cold.err" "$cachedir/warm.err" >&2
    echo "warm pass did not hit every cell the cold pass stored" >&2; exit 1
fi
echo "cache cold/warm/verify byte-identical; warm hit all $stored stored cells"

# Fleet determinism gates: each coupled-fleet command below runs twice and
# the two outputs must be byte-identical. wall_seconds is the one wall-clock
# field of the JSON output; normalize it before comparing (everything else
# is virtual-time deterministic). twice CMD... runs CMD twice, each run's
# stdout going to a file first so a failing run stops the script, and
# leaves the normalized outputs in $cachedir/twice.a and twice.b.
twice() {
    for run in a b; do
        "$@" >"$cachedir/twice.raw"
        sed -E 's/"wall_seconds":[0-9.eE+-]+/"wall_seconds":0/' "$cachedir/twice.raw" >"$cachedir/twice.$run"
    done
    cmp "$cachedir/twice.a" "$cachedir/twice.b"
}

# Fleet gate: JSON (fabric report included) and tail exemplars, written by
# each run to a file named after twice's $run.
echo "== fleet run twice =="
go build -o "$cachedir/umprof" ./cmd/umprof
fleet_run() {
    "$cachedir/umprof" -app Text -rps 24000 -duration 40ms -warmup 10ms \
        -servers 6 -lb p2c -skew 1,1,1,2,1,3 -json -fabric \
        -exemplars "$cachedir/ex.$run.json"
}
twice fleet_run
cmp "$cachedir/ex.a.json" "$cachedir/ex.b.json"
echo "fleet run twice byte-identical (json + exemplars)"

# Control gate: the closed-loop front end (retry with capped backoff+jitter,
# tail hedging) routes every decision through coupling messages and its own
# derived RNG stream, so the controlled fleet's JSON — client-level control
# accounting included — must be byte-identical run to run.
echo "== control loop run twice =="
twice "$cachedir/umprof" -app Text -rps 16000 -duration 40ms -warmup 10ms \
    -servers 2 -lb rr -skew 1,3 -retries 2 -hedge 1ms -json
grep -q '"control":{"submitted":' "$cachedir/twice.a"
echo "control loop run twice byte-identical (json incl. control accounting)"

# What-if gate: the causal-profiling grid (traced paired-seed cells, each
# reduced to a latency and blame summary inside the cell) must be
# byte-identical run to run; its JSON carries no wall-clock fields.
echo "== whatif run twice =="
twice "$cachedir/umprof" -whatif -app Text -rps 16000 -duration 40ms -warmup 10ms \
    -servers 4 -lb p2c -skew 1,1,2,1 \
    -whatif-stages sched,net -whatif-factors 0.5,0 -json
echo "whatif run twice byte-identical"

# Trace round-trip gate: umtrace -csv must feed umprof -trace losslessly —
# every record parsed, replayed through the coupled fleet, and the JSON
# (trace accounting included) byte-identical run to run. This is the
# external-trace loop closed through the real CLIs.
echo "== trace round trip (umtrace -csv -> umprof -trace) =="
go build -o "$cachedir/umtrace" ./cmd/umtrace
"$cachedir/umtrace" -requests 1500 -csv >"$cachedir/trace.csv"
twice "$cachedir/umprof" -trace "$cachedir/trace.csv" -app CPost -rps 40000 \
    -duration 40ms -warmup 10ms -servers 4 -lb rr -json
grep -q '"trace":{"records":1500,' "$cachedir/twice.a"
echo "trace replay run twice byte-identical (1500 records round-tripped)"

# One-server gate: a one-server fleet is a plain machine run of its server
# config, so -servers 1 must reproduce the run without -servers byte for
# byte — for synthetic arrivals and for a replayed trace.
echo "== one-server fleet == machine run =="
"$cachedir/umprof" -app CPost -rps 15000 -duration 60ms -warmup 10ms \
    -exemplars "$cachedir/one0.json" >/dev/null
"$cachedir/umprof" -app CPost -rps 15000 -duration 60ms -warmup 10ms \
    -servers 1 -exemplars "$cachedir/one1.json" >/dev/null
cmp "$cachedir/one0.json" "$cachedir/one1.json"
"$cachedir/umprof" -trace "$cachedir/trace.csv" -app CPost -rps 40000 -duration 40ms \
    -warmup 10ms -exemplars "$cachedir/onetr0.json" >/dev/null
"$cachedir/umprof" -trace "$cachedir/trace.csv" -app CPost -rps 40000 -duration 40ms \
    -warmup 10ms -servers 1 -exemplars "$cachedir/onetr1.json" >/dev/null
cmp "$cachedir/onetr0.json" "$cachedir/onetr1.json"
echo "one-server fleet exemplars byte-identical to machine run (synthetic + trace)"

# Fail-fast gate: malformed traces, invalid graph figures, synthetic apps
# with an unusable mean and a fleet flag without -servers must exit 2 with a diagnostic, before any simulation runs.
echo "== trace/graph validation exits =="
printf 'arrival_us,service,duration_us,cpu_util,rpcs\n1,a,-2,0.5,3\n' >"$cachedir/bad.csv"
if "$cachedir/umprof" -trace "$cachedir/bad.csv" 2>"$cachedir/bad.err"; then
    echo "umprof accepted a malformed trace" >&2; exit 1
fi
grep -q 'trace line 2' "$cachedir/bad.err"
if "$cachedir/umprof" -trace "$cachedir/trace.csv" -whatif 2>"$cachedir/conflict.err"; then
    echo "umprof accepted -trace with -whatif" >&2; exit 1
fi
grep -q 'not supported with -whatif' "$cachedir/conflict.err"
if "$cachedir/umbench" -figures graph,bogus 2>"$cachedir/figs.err"; then
    echo "umbench accepted an unknown figure" >&2; exit 1
fi
grep -q 'unknown figure' "$cachedir/figs.err"
if "$cachedir/umprof" -app synthetic:lognormal:-5:2 2>"$cachedir/mean.err"; then
    echo "umprof accepted a negative synthetic mean" >&2; exit 1
fi
grep -q 'mean -5 outside' "$cachedir/mean.err"
set +e
"$cachedir/umprof" -lb bogus 2>"$cachedir/lb.err"
code=$?
set -e
if [ "$code" -ne 2 ]; then
    echo "umprof -lb without -servers exited $code, want 2" >&2; exit 1
fi
grep -q -- '-servers' "$cachedir/lb.err"
# Pinned placement with fewer villages than hosted services fails the
# hosting check before simulating, instead of panicking mid-run.
go build -o "$cachedir/umsim" ./cmd/umsim
set +e
"$cachedir/umsim" -app CPost -queues 4 2>"$cachedir/hosting.err"
code=$?
set -e
if [ "$code" -ne 2 ]; then
    echo "umsim -app CPost -queues 4 exited $code, want 2" >&2; exit 1
fi
grep -q 'pinned placement of 8 services, 1 per domain, needs 8 domains, but Domains is 4' "$cachedir/hosting.err"
echo "validation paths exit 2 with diagnostics"

# Graph figure smoke: the service-graph study runs end to end in quick mode
# and shows the placement contrast (colocated ships nothing remotely).
echo "== graph figure smoke =="
"$cachedir/umbench" -quick -figures graph -cache "$cachedir/cells" >"$cachedir/graph.out"
grep -q 'Service-graph study' "$cachedir/graph.out"
grep -q 'colocated' "$cachedir/graph.out"
grep -q 'spread' "$cachedir/graph.out"
echo "graph figure OK"

# Baseline gate (warn-only): diff the lb figure against the checked-in
# snapshot. Deterministic sims mean any drift here is a real model change;
# warn-only keeps CI green while a deliberate change circulates —
# regenerating BENCH_lb_baseline.json is the fix. The gate compares against
# a copy, so the trajectory point it appends lands in the temp directory,
# not in the tracked trajectory file.
echo "== bench baseline diff (warn-only) =="
cp BENCH_lb_baseline.json "$cachedir/BENCH_lb_baseline.json"
"$cachedir/umbench" -quick -figures lb -cache "$cachedir/cells" \
    -baseline "$cachedir/BENCH_lb_baseline.json" -baseline-warn >/dev/null

# Reference-hash gate: perfbench hashes the simulated output of a timed run
# and checks it against perfbench/reference.json, so any drift in the
# model's output bytes fails here. fleet16 is the one workload through the
# PDES fabric and the coupled fleet's messages, and its hash check also
# covers its ShardWorkers 2 and -1 identity re-runs. figures is the one
# workload through the software-queue machines, and its hash check covers
# the sweep's Parallel=1 identity re-run. Full mode only: it builds
# perfbench and times several passes, which takes a few minutes.
if [ "${1:-}" != "quick" ]; then
    for workload in server fleet16 figures; do
        echo "== perfbench reference hash ($workload) =="
        if ! python3 perfbench/run.py --workload "$workload" --seed 1 --seconds 1 --trace 0 \
            >"$cachedir/perfbench.out" 2>"$cachedir/perfbench.err" ||
            ! tail -n 1 "$cachedir/perfbench.out" | grep -q '"correct": true'; then
            cat "$cachedir/perfbench.out" "$cachedir/perfbench.err" >&2
            echo "perfbench $workload run is not correct: output drifted from its reference hash" >&2
            exit 1
        fi
        tail -n 1 "$cachedir/perfbench.out"
    done
fi

echo "== bench smoke (allocation + construction + sweep + telemetry + coupled-fleet benchmarks, 1 iteration) =="
go test -run xxx -bench 'BenchmarkEngine|BenchmarkMachineRun|BenchmarkMachineNew' -benchtime 1x \
    -benchmem ./internal/sim/ ./internal/machine/
go test -run xxx -bench 'BenchmarkFleetCoupled' -benchtime 1x -benchmem ./internal/fleet/
go test -run xxx -bench 'BenchmarkEndToEndGridWorkers' -benchtime 1x .

echo "== tracked trajectory unchanged =="
if [ "$(cksum <"$traj")" != "$trajsum" ]; then
    echo "CI modified the tracked $traj" >&2; exit 1
fi
echo "$traj unchanged"

echo "CI OK"
