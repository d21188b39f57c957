#!/usr/bin/env python3
"""Run one workload of the simulator's benchmark and print its result.

Run from the root of a checkout:

    python3 perfbench/run.py --workload server --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seconds 10

It builds perfbench (a Go program in this directory) from the checkout's
sources, with every Go cache and temporary file kept under .bench_build/,
runs it, and prints the metrics by name with their units. The last line
of standard output is one JSON object: correct, attempted, failed and
metrics. --trace 0 gives the end-to-end metrics, --trace 1 the per-layer
ones. See README.md for what each workload and metric is for.
"""

import argparse
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time

WORKLOADS = ("server", "fleet16", "figures")

END_TO_END = [
    ("wall_cal", "calib"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sim_p99_us", "us"),
]

CPU_BUCKETS = ["sim", "heap", "machine", "icn", "rq", "sched", "rpcnet", "pdes",
               "fleet", "sweep", "stats", "runtime-malloc", "runtime-gc", "other"]

PER_LAYER = [
    ("sim.events", "count"),
    ("sim.ns_per_event", "ns"),
    ("sim.allocs_per_event", "count"),
    ("sim.heap_peak", "count"),
    ("machine.requests", "count"),
    ("machine.ns_per_req", "ns"),
    ("machine.allocs_per_req", "count"),
    ("machine.setup_s", "s"),
    ("pdes.rounds", "count"),
    ("pdes.events_per_window", "count"),
    ("pdes.msgs", "count"),
    ("pdes.lookahead_util", "ratio"),
    ("pdes.shard_imbalance", "ratio"),
    ("pdes.events_per_s", "1/s"),
    ("pdes.w2_speedup", "ratio"),
    ("pdes.w2_busy_frac", "ratio"),
    ("sweep.cells", "count"),
    ("sweep.busy_s", "s"),
    ("sweep.parallel_eff", "ratio"),
    ("experiments.e2e_s", "s"),
    ("experiments.fig15_s", "s"),
    ("experiments.fig19_s", "s"),
    ("go.alloc_mb", "MB"),
    ("go.gc_cycles", "count"),
    ("go.gc_cpu_frac", "ratio"),
] + [("cpu.%s_frac" % b, "ratio") for b in CPU_BUCKETS] + [
    ("trace.overhead_frac", "ratio"),
    ("host.wall_s", "s"),
    ("host.calib_s", "s"),
]

# Set-up is milliseconds, so one reading is mostly process-start jitter:
# setup_s is the median over this many set-up-only processes.
SETUP_SPAWNS = 31

# The calibration kernel's host seconds on the 2.0 GHz Xeon VM the
# benchmark was built on. Each set-up reading is scaled by this over the
# kernel's time measured right after it, so setup_s is set-up time at that
# reference speed and the host's drift cancels.
REFERENCE_CALIB_S = 0.040

# A workload's run may take RUN_MARGIN_S plus RUN_FACTOR times --seconds
# host seconds, excluding the build: the measured passes, the set-up
# processes, the worker-count re-runs and the traced run's profiled half,
# with room for a host several times slower than expected.
RUN_MARGIN_S = 90
RUN_FACTOR = 4
BUILD_LIMIT_S = 850

BUILD_DIR = ".bench_build"


class BenchError(Exception):
    pass


def go_env(root):
    """The environment for every go command: caches, config and temporary
    files stay inside the checkout, and nothing is fetched."""
    build = os.path.join(root, BUILD_DIR)
    home = os.path.join(build, "home")
    tmp = os.path.join(build, "tmp")
    for d in (home, tmp):
        os.makedirs(d, exist_ok=True)
    env = {k: v for k, v in os.environ.items() if not k.startswith("GO") or k == "GOROOT"}
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOMODCACHE": os.path.join(build, "gopath", "pkg", "mod"),
        "GOENV": "off",
        "GOFLAGS": "-mod=mod",
        "GOWORK": "off",
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOSUMDB": "off",
        "CGO_ENABLED": "0",
        "HOME": home,
        "XDG_CONFIG_HOME": os.path.join(home, ".config"),
        "XDG_CACHE_HOME": os.path.join(home, ".cache"),
        "TMPDIR": tmp,
        "PPROF_TMPDIR": tmp,
    })
    return env


def check_checkout(root):
    for need in ("go.mod", "umanycore.go", os.path.join("perfbench", "go.mod")):
        if not os.path.isfile(os.path.join(root, need)):
            raise BenchError("%s not found: run from the root of a umanycore checkout" % need)


def build(root, env):
    if shutil.which("go", path=env.get("PATH")) is None:
        raise BenchError("the go toolchain is not on PATH")
    out = os.path.join(root, BUILD_DIR, "perfbench", "perfbench")
    os.makedirs(os.path.dirname(out), exist_ok=True)
    proc = subprocess.run(["go", "build", "-o", out, "."], cwd=os.path.join(root, "perfbench"),
                          env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          timeout=BUILD_LIMIT_S, text=True)
    if proc.returncode != 0:
        raise BenchError("building perfbench failed:\n" + proc.stdout)
    return out


def last_json(stdout, what):
    lines = [l for l in stdout.splitlines() if l.strip()]
    if not lines:
        raise BenchError("%s printed no result" % what)
    return json.loads(lines[-1])


def run_bin(cmd, timeout, what):
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          timeout=timeout, text=True)
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise BenchError("%s exited with code %d" % (what, proc.returncode))
    return last_json(proc.stdout, what)


def setup_samples(binary, workload, seed, deadline):
    """Raw set-up seconds and the calibration kernel's seconds right after
    each, one pair per set-up-only process."""
    out = []
    for _ in range(SETUP_SPAWNS):
        rep = run_bin([binary, "-workload", workload, "-seed", str(seed), "-setup-only",
                       "-spawn-ns", str(time.time_ns())],
                      max(1.0, deadline - time.monotonic()), "set-up run")
        out.append((rep["setup_s"], rep["calib_s"][0]))
    return out


def classify(func):
    """Map a profiled function name to its CPU bucket."""
    name = func.split("[", 1)[0]
    slash = name.rfind("/")
    dot = name.find(".", slash + 1)
    # Assembly routines (gcWriteBarrier, aeshashbody, ...) carry no package.
    pkg = name[:dot] if dot >= 0 else "runtime"
    short = {
        "umanycore/internal/sim": "sim", "container/heap": "heap",
        "umanycore/internal/machine": "machine", "umanycore/internal/icn": "icn",
        "umanycore/internal/rq": "rq", "umanycore/internal/sched": "sched",
        "umanycore/internal/rpcnet": "rpcnet", "umanycore/internal/pdes": "pdes",
        "umanycore/internal/fleet": "fleet", "umanycore/internal/sweep": "sweep",
        "umanycore/internal/stats": "stats",
    }.get(pkg)
    if short:
        return short
    if pkg == "runtime":
        if re.search(r"malloc|newobject|newarray|makeslice|growslice|nextFree|rawstring|rawbyteslice", name):
            return "runtime-malloc"
        if re.search(r"gc|GC|scan|mark|[sS]weep|wbBuf|Barrier|greyobject|findObject|spanOf|typePointers|"
                     r"Assist", name):
            return "runtime-gc"
        if re.search(r"alloc|mcache|mcentral|mheap|mspan|memclrNoHeapPointers|[hH]eapBits|divRoundUp", name):
            return "runtime-malloc"
    return "other"


def fold_profile(profile, root, env):
    """Fold a CPU profile's flat samples into shares per bucket (summing
    to 1), using the go toolchain's pprof."""
    proc = subprocess.run(["go", "tool", "pprof", "-top", "-unit=ns", "-nodecount=1000000",
                           "-nodefraction=0", "-edgefraction=0", profile],
                          cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          timeout=120, text=True)
    if proc.returncode != 0:
        raise BenchError("go tool pprof failed:\n" + proc.stderr)
    totals = dict.fromkeys(CPU_BUCKETS, 0.0)
    row = re.compile(r"^\s*([0-9.]+)ns\s+\S+\s+\S+\s+\S+\s+\S+\s+(.+?)(\s+\(inline\))?$")
    for line in proc.stdout.splitlines():
        m = row.match(line)
        if m:
            totals[classify(m.group(2))] += float(m.group(1))
    total = sum(totals.values())
    if total <= 0:
        raise BenchError("CPU profile %s holds no samples" % profile)
    return {"cpu.%s_frac" % b: v / total for b, v in totals.items()}


def stamp(root, seed, workload, rep):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "workload": workload, "seed": seed, "cpu": cpu, "nproc": rep["nproc"],
        "gomaxprocs": rep["gomaxprocs"], "go": rep["go_version"], "commit": commit(root),
    }


def commit(root):
    """The git commit, or "unknown" outside a git repository."""
    if not os.path.isdir(os.path.join(root, ".git")):
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def tail_percentile(xs):
    """The highest of p50/p75/p90/p95/p99 with at least ten samples beyond
    it, nearest-rank; None below 20 samples."""
    s = sorted(xs)
    best = None
    for p in (50, 75, 90, 95, 99):
        if len(s) * (100 - p) / 100 >= 10:
            best = (p, s[min(len(s) - 1, -(-len(s) * p // 100) - 1)])
    return best


def run_workload(root, env, binary, workload, seed, seconds, trace):
    deadline = time.monotonic() + RUN_MARGIN_S + RUN_FACTOR * seconds
    setups = [] if trace else setup_samples(binary, workload, seed, deadline)
    cmd = [binary, "-workload", workload, "-seed", str(seed), "-seconds", str(seconds),
           "-out", os.path.join(root, BUILD_DIR, "perfbench")]
    if trace:
        cmd.append("-trace")
    rep = run_bin(cmd + ["-spawn-ns", str(time.time_ns())],
                  max(1.0, deadline - time.monotonic()), "perfbench")
    env_stamp = stamp(root, seed, workload, rep)
    print("env: " + json.dumps(env_stamp, sort_keys=True))
    print("check: %d passes attempted, %d failed; hash %s (reference: %s)" % (
        rep["attempted"], rep["failed"], rep.get("hash"), rep.get("reference")))
    for e in rep.get("errors", []):
        print("FAILED " + e)

    metrics = {}
    if not trace:
        walls = rep["wall_s"]
        values = {
            "wall_cal": statistics.median(rep["wall_cal"]),
            "setup_s": statistics.median(s / c * REFERENCE_CALIB_S for s, c in setups),
            "peak_rss_mb": rep["peak_rss_mb"],
            "sim_p99_us": rep["sim_p99_us"],
        }
        tail = tail_percentile(walls)
        print("host wall time per pass: median %.4f s over %d passes%s; calibration kernel median %.4f s" % (
            statistics.median(walls), len(walls), "" if tail is None else ", p%d %.4f s" % tail,
            statistics.median(rep["calib_s"])))
        print("host set-up time: median %.6f s over %d processes; calibration kernel median %.4f s" % (
            statistics.median(s for s, _ in setups), len(setups), statistics.median(c for _, c in setups)))
        notes = {
            "wall_cal": "median over passes of pass time / calibration kernel time",
            "setup_s": "median of %d set-ups, at the reference host speed" % len(setups),
            "peak_rss_mb": "peak resident set of a timed pass",
            "sim_p99_us": "simulated P99, virtual time",
        }
        for name, unit in END_TO_END:
            metrics[name] = {"value": values[name], "unit": unit}
            print("%-24s %14.6g %-6s %s" % (name, values[name], unit, notes[name]))
    else:
        layers = dict(rep.get("layers", {}))
        layers.update(fold_profile(rep["profile"], root, env))
        absent = rep.get("absent", {})
        print("spans: %s  profile: %s  sim_p99_us: %s" % (rep.get("spans"), rep.get("profile"),
                                                           rep.get("sim_p99_us")))
        for name, unit in PER_LAYER:
            why = absent.get(name) or absent.get(name.split(".", 1)[0] + ".*")
            if name in layers:
                value, note = layers[name], ""
            elif why:
                value, note = 0, "absent: " + why
            else:
                raise BenchError("perfbench reported no %s and no reason for its absence" % name)
            metrics[name] = {"value": value, "unit": unit}
            print("%-24s %14.6g %-6s %s" % (name, value, unit, note))
        share = sum(layers["cpu.%s_frac" % b] for b in CPU_BUCKETS)
        print("cpu.*_frac sum to %.12f" % share)
    return {"correct": rep["failed"] == 0 and rep["attempted"] >= 1,
            "attempted": rep["attempted"], "failed": rep["failed"], "metrics": metrics}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    root = os.getcwd()
    # Stopped from outside, exit through subprocess.run, which kills and
    # waits for the running child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    try:
        check_checkout(root)
        env = go_env(root)
        binary = build(root, env)
        if args.workload != "all":
            result = run_workload(root, env, binary, args.workload, args.seed, args.seconds,
                                  args.trace)
        else:
            result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
            for w in WORKLOADS:
                print("== " + w)
                r = run_workload(root, env, binary, w, args.seed, args.seconds, args.trace)
                result["correct"] = result["correct"] and r["correct"]
                result["attempted"] += r["attempted"]
                result["failed"] += r["failed"]
                for k, v in r["metrics"].items():
                    result["metrics"]["%s.%s" % (w, k)] = v
    except (BenchError, OSError, ValueError, KeyError, subprocess.SubprocessError) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
