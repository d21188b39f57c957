#!/usr/bin/env sh
# Repository gate: vet, build, race-clean tests, and a benchmark smoke run.
# Usage: scripts/ci.sh [quick]
#   quick  skips the race detector pass (slow on small machines).
set -eu
cd "$(dirname "$0")/.."

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
# which exercise obs.Merge against the concurrent worker pool. Machines keep
# invocation and RQ-entry free lists that outlive single requests, and sweep
# workers run machines concurrently, so machine and rq are race-checked too:
# a free list shared by mistake must fail here.
echo "== go test -race (obs + sweep + sweepcache + telemetry + pdes + fleet + control + whatif + svcgraph + machine + rq) =="
go test -race -short ./internal/obs/... ./internal/sweep/... ./internal/sweepcache/... ./internal/telemetry/... ./internal/pdes/... ./internal/fleet/... ./internal/control/... ./internal/whatif/... ./internal/svcgraph/... ./internal/machine/... ./internal/rq/...

# Cache gate: a cold run must fill the cache, a warm run must reuse it, a
# verify run must recompute without a single byte of drift — and all three
# must emit byte-identical figure JSON. This is the end-to-end version of the
# determinism battery, through the real CLI.
echo "== sweep cache cold/warm/verify =="
cachedir=$(mktemp -d)
trap 'rm -rf "$cachedir"' EXIT
go build -o "$cachedir/umbench" ./cmd/umbench
"$cachedir/umbench" -quick -figures lb -json "$cachedir/cold.json" -cache "$cachedir/cells" >/dev/null
"$cachedir/umbench" -quick -figures lb -json "$cachedir/warm.json" -cache "$cachedir/cells" >/dev/null
"$cachedir/umbench" -quick -figures lb -json "$cachedir/verify.json" -cache "$cachedir/cells" -cache-verify >/dev/null
cmp "$cachedir/cold.json" "$cachedir/warm.json"
cmp "$cachedir/cold.json" "$cachedir/verify.json"
echo "cache cold/warm/verify byte-identical"

# Shard-worker gate: the coupled fleet must emit byte-identical JSON and tail
# exemplars whether its per-server engines advance on 1 shard worker or 4 —
# the end-to-end version of the PDES determinism contract, through the real
# CLI. wall_seconds is the one wall-clock field of the JSON output; normalize
# it before comparing (everything else is virtual-time deterministic).
echo "== fleet 1-vs-4 shard workers =="
go build -o "$cachedir/umprof" ./cmd/umprof
"$cachedir/umprof" -app Text -rps 24000 -duration 40ms -warmup 10ms \
    -servers 6 -lb p2c -skew 1,1,1,2,1,3 -shard-workers 1 -json -fabric \
    -exemplars "$cachedir/ex1.json" \
    | sed -E 's/"wall_seconds":[0-9.eE+-]+/"wall_seconds":0/' >"$cachedir/shard1.json"
"$cachedir/umprof" -app Text -rps 24000 -duration 40ms -warmup 10ms \
    -servers 6 -lb p2c -skew 1,1,1,2,1,3 -shard-workers 4 -json -fabric \
    -exemplars "$cachedir/ex4.json" \
    | sed -E 's/"wall_seconds":[0-9.eE+-]+/"wall_seconds":0/' >"$cachedir/shard4.json"
cmp "$cachedir/shard1.json" "$cachedir/shard4.json"
cmp "$cachedir/ex1.json" "$cachedir/ex4.json"
echo "shard workers 1 vs 4 byte-identical (json + exemplars)"

# Control gate: the closed-loop front end (retry with capped backoff+jitter,
# tail hedging) routes every decision through coupling messages and its own
# derived RNG stream, so the controlled fleet's JSON — client-level control
# accounting included — must be byte-identical for the single-engine
# reference and a 4-worker PDES. Same wall_seconds normalization as above.
echo "== control loop -1-vs-4 shard workers =="
"$cachedir/umprof" -app Text -rps 16000 -duration 40ms -warmup 10ms \
    -servers 2 -lb rr -skew 1,3 -retries 2 -hedge 1ms -shard-workers -1 -json \
    | sed -E 's/"wall_seconds":[0-9.eE+-]+/"wall_seconds":0/' >"$cachedir/ctl-ref.json"
"$cachedir/umprof" -app Text -rps 16000 -duration 40ms -warmup 10ms \
    -servers 2 -lb rr -skew 1,3 -retries 2 -hedge 1ms -shard-workers 4 -json \
    | sed -E 's/"wall_seconds":[0-9.eE+-]+/"wall_seconds":0/' >"$cachedir/ctl-4.json"
cmp "$cachedir/ctl-ref.json" "$cachedir/ctl-4.json"
grep -q '"control":{"submitted":' "$cachedir/ctl-4.json"
echo "control loop -1 vs 4 byte-identical (json incl. control accounting)"

# What-if gate: the causal-profiling grid (traced paired-seed cells reduced
# through the cell codec) must also be byte-identical across shard-worker
# counts — and its JSON carries no wall-clock fields, so no normalization.
echo "== whatif 1-vs-4 shard workers =="
"$cachedir/umprof" -whatif -app Text -rps 16000 -duration 40ms -warmup 10ms \
    -servers 4 -lb p2c -skew 1,1,2,1 -shard-workers 1 \
    -whatif-stages sched,net -whatif-factors 0.5,0 -json >"$cachedir/wi1.json"
"$cachedir/umprof" -whatif -app Text -rps 16000 -duration 40ms -warmup 10ms \
    -servers 4 -lb p2c -skew 1,1,2,1 -shard-workers 4 \
    -whatif-stages sched,net -whatif-factors 0.5,0 -json >"$cachedir/wi4.json"
cmp "$cachedir/wi1.json" "$cachedir/wi4.json"
echo "whatif shard workers 1 vs 4 byte-identical"

# Trace round-trip gate: umtrace -csv must feed umprof -trace losslessly —
# every record parsed, replayed through the coupled fleet, and the JSON
# (trace accounting included) byte-identical for the single-engine reference
# and 1/4 shard workers. This is the external-trace loop closed through the
# real CLIs.
echo "== trace round trip (umtrace -csv -> umprof -trace) =="
go build -o "$cachedir/umtrace" ./cmd/umtrace
"$cachedir/umtrace" -requests 1500 -csv >"$cachedir/trace.csv"
for w in -1 1 4; do
    "$cachedir/umprof" -trace "$cachedir/trace.csv" -app CPost -rps 40000 \
        -duration 40ms -warmup 10ms -servers 4 -lb rr -shard-workers "$w" -json \
        | sed -E 's/"wall_seconds":[0-9.eE+-]+/"wall_seconds":0/' >"$cachedir/replay$w.json"
done
cmp "$cachedir/replay-1.json" "$cachedir/replay1.json"
cmp "$cachedir/replay-1.json" "$cachedir/replay4.json"
grep -q '"trace":{"records":1500,' "$cachedir/replay4.json"
echo "trace replay -1 vs 1 vs 4 byte-identical (1500 records round-tripped)"

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

# Fail-fast gate: malformed traces and invalid graph figures must exit 2
# with a diagnostic, before any simulation runs.
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
# snapshot and record a trajectory point. Deterministic sims mean any drift
# here is a real model change; warn-only keeps CI green while a deliberate
# change circulates — regenerating BENCH_lb_baseline.json is the fix.
echo "== bench baseline diff (warn-only) =="
"$cachedir/umbench" -quick -figures lb -cache "$cachedir/cells" \
    -baseline BENCH_lb_baseline.json -baseline-warn >/dev/null

# Reference-hash gate: perfbench hashes the simulated output of a timed run
# and checks it against perfbench/reference.json, so any drift in the
# model's output bytes fails here. fleet16 is the one workload through the
# PDES fabric and the coupled fleet's messages, and its hash check also
# covers its ShardWorkers 2 and -1 identity re-runs. Full mode only: it
# builds perfbench and times several passes, which takes about a minute.
if [ "${1:-}" != "quick" ]; then
    for workload in server fleet16; do
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

echo "== bench smoke (allocation + sweep + telemetry benchmarks, 1 iteration) =="
go test -run xxx -bench 'BenchmarkEngine|BenchmarkMachineRun' -benchtime 1x \
    -benchmem ./internal/sim/ ./internal/machine/
go test -run xxx -bench 'BenchmarkEndToEndGridWorkers' -benchtime 1x .

echo "CI OK"
