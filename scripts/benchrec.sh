#!/bin/sh
# benchrec.sh — records benchmark runs in the repository, one JSON object a
# line, each stamped with the commit and the runner's shape, so that a
# performance claim is a committed, reproducible number.
#
#	scripts/benchrec.sh <workload> [n]   # n runs of go run ./bench (default 5)
#	scripts/benchrec.sh micro [n]        # n counts of the Go micro-benchmarks
#
# A workload of BENCHMARK.json (estimate-cold, estimate-hot, estimate-live,
# train) runs `go run ./bench -workload <workload> -seed i` for i = 1..n and
# appends each run's result line to BENCH_<workload>.json. The line keeps
# every key bench prints (correct, attempted, failed, metrics) and gains
# commit, nproc, go, cpu and seed, so the lines of one commit, as
#
#	grep '"commit":"<sha>"' BENCH_train.json > dir/train.jsonl
#
# picks them, are what `go run ./bench -compare` reads.
#
# micro runs, at -cpu 1,2 and -count n, BenchmarkTrainStep/B32 (both worker
# counts) and BenchmarkEstimate in internal/core, BenchmarkDirect,
# BenchmarkEngineNoCache and BenchmarkEngineOversubscribed in internal/infer
# and BenchmarkNearestEdge in internal/roadnet, and appends one line per result to BENCH_micro.json:
# the stamp, the package, the benchmark, GOMAXPROCS and its ns/op, B/op and
# allocs/op.
#
# The commit is HEAD's, suffixed "+dirty" when tracked files other than
# BENCH_*.json differ from it: such a run measured code no commit holds.
set -eu
cd "$(dirname "$0")/.."

if [ $# -lt 1 ]; then
    echo "usage: $0 <workload>|micro [n]" >&2
    exit 2
fi
workload=$1
n=${2:-5}

commit=$(git rev-parse --short=12 HEAD)
if ! git diff --quiet HEAD -- . ':(exclude)BENCH_*.json'; then
    commit="$commit+dirty"
fi
cpu=$(sed -n 's/^model name[[:space:]]*:[[:space:]]*//p' /proc/cpuinfo 2>/dev/null | head -n 1)
[ -n "$cpu" ] || cpu=$(uname -m)
stamp=$(printf '"commit":"%s","nproc":%d,"go":"%s","cpu":"%s"' \
    "$commit" "$(nproc)" "$(go env GOVERSION)" "$(printf '%s' "$cpu" | sed 's/["\\]/_/g')")

if [ "$workload" = micro ]; then
    out=BENCH_micro.json
    # -bench matches a name level by level at each "/", so a benchmark
    # with sub-benchmarks gets its own run.
    for spec in "./internal/core ^BenchmarkTrainStep\$/^B32\$" \
        "./internal/core ^BenchmarkEstimate\$" \
        "./internal/infer ^(BenchmarkDirect|BenchmarkEngineNoCache|BenchmarkEngineOversubscribed)\$" \
        "./internal/roadnet ^BenchmarkNearestEdge\$"; do
        pkg=${spec%% *}
        go test -run '^$' -bench "${spec#* }" -benchmem -cpu 1,2 -count "$n" "$pkg" |
            awk -v stamp="$stamp" -v pkg="$pkg" '
                $1 ~ /^Benchmark/ && $4 == "ns/op" {
                    name = $1; procs = 1
                    if (match(name, /-[0-9]+$/)) {
                        procs = substr(name, RSTART + 1); name = substr(name, 1, RSTART - 1)
                    }
                    bytes = ""; allocs = ""
                    for (i = 5; i < NF; i++) {
                        if ($(i + 1) == "B/op") bytes = $i
                        if ($(i + 1) == "allocs/op") allocs = $i
                    }
                    printf "{%s,\"pkg\":\"%s\",\"bench\":\"%s\",\"procs\":%d,\"n\":%d,\"ns_per_op\":%s,\"bytes_per_op\":%s,\"allocs_per_op\":%s}\n",
                        stamp, pkg, name, procs, $2, $3, bytes, allocs
                }' >>"$out"
    done
    echo "benchrec: appended to $out" >&2
    exit 0
fi

out=BENCH_$workload.json
i=1
while [ "$i" -le "$n" ]; do
    res=$(go run ./bench -workload "$workload" -seed "$i" | tail -n 1)
    case $res in
    "{"*) printf '{%s,"workload":"%s","seed":%d,%s\n' "$stamp" "$workload" "$i" "${res#\{}" >>"$out" ;;
    *)
        echo "benchrec: run $i printed no result line" >&2
        exit 1
        ;;
    esac
    i=$((i + 1))
done
echo "benchrec: appended $n runs to $out" >&2
