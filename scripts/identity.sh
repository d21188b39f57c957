#!/usr/bin/env bash
# Output identity against another revision: builds the CLIs of REV (from a
# `git archive` export in a temp dir) and of the work tree, runs one fixed
# battery of deterministic commands with each, and prints one line per
# command: `identical`, or the first line that differs. Exits 1 if any
# command's output differs.
#
#   scripts/identity.sh HEAD~1
#
# Wall-clock text is normalized before comparing, as scripts/ci.sh does:
# the JSON `wall_seconds` field and the timing half of umsim's
# `simulator :` line. umbench's stderr (timings, cache and ETA notes) is not
# compared. The umbench figures take most of the time, about a minute per
# side on 2 cores.
set -euo pipefail

rev=${1:?usage: scripts/identity.sh REV}
root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

mkdir -p "$tmp/src" "$tmp/old/bin" "$tmp/new/bin"
git -C "$root" archive "$rev" | tar -x -C "$tmp/src"
(cd "$tmp/src" && CGO_ENABLED=0 go build -o "$tmp/old/bin/" ./cmd/...)
(cd "$root" && CGO_ENABLED=0 go build -o "$tmp/new/bin/" ./cmd/...)
for side in old new; do
    "$tmp/$side/bin/umtrace" -requests 800 -csv >"$tmp/$side/trace.csv"
done

normalize() {
    sed -E -e 's/"wall_seconds":[0-9.eE+-]+/"wall_seconds":0/g' \
        -e 's/^(simulator +: [0-9]+ events) in .*/\1/' "$1"
}

# first_diff OLD NEW prints the first differing line's number and, around
# the first differing byte, both sides' text.
first_diff() {
    local where byte line start col
    where=$(cmp "$1" "$2" 2>&1 || true)
    # cmp names the position "byte N, line L" or "char N, line L".
    if ! [[ $where =~ (byte|char)\ ([0-9]+),\ line\ ([0-9]+) ]]; then
        echo "$where" # one file ends first
        return
    fi
    byte=${BASH_REMATCH[2]} line=${BASH_REMATCH[3]}
    start=$(head -n $((line - 1)) "$1" | wc -c)
    col=$((byte - start))
    excerpt() { sed -n "${line}p" "$1" | cut -c "$((col > 40 ? col - 40 : 1))-$((col + 40))"; }
    echo "line $line: old «$(excerpt "$1")» new «$(excerpt "$2")»"
}

status=0
# check NAME BIN ARGS... runs BIN ARGS... with both builds and compares
# stdout, a nonzero exit status included. In ARGS, @ stands for the side's
# scratch directory: a file the command writes there (an -exemplars or
# -json FILE) is compared too, and @trace.csv is the side's own umtrace
# output. The first differing file is reported.
check() {
    local name=$1 bin=$2 side f a result=identical
    shift 2
    for side in old new; do
        rm -rf "$tmp/$side/run" && mkdir "$tmp/$side/run"
        local args=()
        for a in "$@"; do
            a=${a//@trace.csv/$tmp/$side/trace.csv}
            args+=("${a//@/$tmp/$side/run/}")
        done
        "$tmp/$side/bin/$bin" "${args[@]}" >"$tmp/$side/run/stdout" 2>"$tmp/$side/stderr" ||
            echo "exit status $?" >>"$tmp/$side/run/stdout"
    done
    for f in "$tmp"/old/run/*; do
        f=${f##*/}
        normalize "$tmp/old/run/$f" >"$tmp/old/cmp"
        normalize "$tmp/new/run/$f" >"$tmp/new/cmp" 2>/dev/null || : >"$tmp/new/cmp"
        if ! cmp -s "$tmp/old/cmp" "$tmp/new/cmp"; then
            result="$f $(first_diff "$tmp/old/cmp" "$tmp/new/cmp")"
            status=1
            break
        fi
    done
    echo "$name: $result"
}

win=(-duration 60ms -warmup 10ms)
for arch in umanycore scaleout serverclass; do
    check "umsim -arch $arch" umsim -arch "$arch" -rps 15000 "${win[@]}"
    check "umsim -arch $arch -mix" umsim -arch "$arch" -mix -rps 15000 "${win[@]}"
done

fleet=(-app Text -rps 24000 -duration 40ms -warmup 10ms -servers 6 -lb least -skew 1,1,1,2,1,3 -json)
check "umprof fleet" umprof "${fleet[@]}"
check "umprof fleet -fabric" umprof "${fleet[@]}" -fabric
check "umprof fleet control" umprof "${fleet[@]}" -retries 2 -hedge 1ms -shed-prob 0.5 -shed-slo 500
check "umprof fleet -whatif" umprof "${fleet[@]}" -whatif -whatif-stages sched,net -whatif-factors 0.5,0
check "umprof fleet -trace" umprof "${fleet[@]}" -trace @trace.csv -app CPost -rps 40000
check "umprof -servers 1 -exemplars" umprof -app CPost -rps 15000 "${win[@]}" -servers 1 -exemplars @exemplars.json

check "umbench -quick -figures e2e,15,19,lb,graph,control (stdout, -json)" umbench \
    -quick -figures e2e,15,19,lb,graph,control -json @figures.json
check "umbench -quick -figures 18" umbench -quick -figures 18

exit $status
