#!/bin/sh
# benchrec.sh — records benchmark runs in the repository, one JSON object a
# line, each stamped with the commit and the runner's shape, so that a
# performance claim is a committed, reproducible number.
#
#	scripts/benchrec.sh <workload> [n] [parent-tree]   # n runs of go run ./bench (default 5)
#	scripts/benchrec.sh micro [n] [parent-tree]        # n counts of the Go micro-benchmarks
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
# BenchmarkEngineNoCache, BenchmarkEngineMiss, BenchmarkEngineOversubscribed
# and BenchmarkEngineCached in internal/infer, BenchmarkSpanUntraced and
# BenchmarkSpanStages in internal/obs, BenchmarkNearestEdge in
# internal/roadnet and BenchmarkExternal in internal/citysim, and appends
# one line per result to BENCH_micro.json: the stamp, the package, the
# benchmark, GOMAXPROCS and its ns/op, B/op and allocs/op.
#
# parent-tree is a checkout of another commit, normally the parent (made
# with `git worktree add` or `git clone`). With it, each of the n rounds
# runs the same measurement in both trees, seed i (or one -count) in round
# i, and swaps which tree goes first every round, so a pair shares its
# seed and its minute of machine noise. Every line, the parent's included,
# goes to this tree's BENCH_*.json, stamped with the commit of the tree
# that ran it.
#
# The commit is the tree's HEAD, suffixed "+dirty" when tracked files other
# than BENCH_*.json differ from it: such a run measured code no commit holds.
set -eu
cd "$(dirname "$0")/.."

if [ $# -lt 1 ] || [ $# -gt 3 ]; then
    echo "usage: $0 <workload>|micro [n] [parent-tree]" >&2
    exit 2
fi
workload=$1
n=${2:-5}
here=$(pwd)
parent=""
if [ $# -eq 3 ]; then
    parent=$(cd "$3" && pwd)
fi

cpu=$(sed -n 's/^model name[[:space:]]*:[[:space:]]*//p' /proc/cpuinfo 2>/dev/null | head -n 1)
[ -n "$cpu" ] || cpu=$(uname -m)
cpu=$(printf '%s' "$cpu" | sed 's/["\\]/_/g')

# stamp prints the JSON stamp of the tree in directory $1.
stamp() {
    commit=$(git -C "$1" rev-parse --short=12 HEAD)
    if ! git -C "$1" diff --quiet HEAD -- . ':(exclude)BENCH_*.json'; then
        commit="$commit+dirty"
    fi
    printf '"commit":"%s","nproc":%d,"go":"%s","cpu":"%s"' \
        "$commit" "$(nproc)" "$(cd "$1" && go env GOVERSION)" "$cpu"
}

# micro runs the micro-benchmark list -count $2 times in the tree $1.
micro() {
    st=$(stamp "$1")
    # -bench matches a name level by level at each "/", so a benchmark
    # with sub-benchmarks gets its own run.
    for spec in "./internal/core ^BenchmarkTrainStep\$/^B32\$" \
        "./internal/core ^BenchmarkEstimate\$" \
        "./internal/infer ^(BenchmarkDirect|BenchmarkEngineNoCache|BenchmarkEngineMiss|BenchmarkEngineOversubscribed|BenchmarkEngineCached)\$" \
        "./internal/obs ^(BenchmarkSpanUntraced|BenchmarkSpanStages)\$" \
        "./internal/roadnet ^BenchmarkNearestEdge\$" \
        "./internal/citysim ^BenchmarkExternal\$"; do
        pkg=${spec%% *}
        (cd "$1" && go test -run '^$' -bench "${spec#* }" -benchmem -cpu 1,2 -count "$2" "$pkg") |
            awk -v stamp="$st" -v pkg="$pkg" '
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
                }' >>"$here/BENCH_micro.json"
    done
}

# run appends one go run ./bench result of seed $2 in the tree $1.
run() {
    res=$(cd "$1" && go run ./bench -workload "$workload" -seed "$2" | tail -n 1)
    case $res in
    "{"*) printf '{%s,"workload":"%s","seed":%d,%s\n' "$(stamp "$1")" "$workload" "$2" "${res#\{}" >>"$here/BENCH_$workload.json" ;;
    *)
        echo "benchrec: $1 seed $2 printed no result line" >&2
        exit 1
        ;;
    esac
}

if [ -z "$parent" ] && [ "$workload" = micro ]; then
    micro "$here" "$n"
    echo "benchrec: appended to BENCH_micro.json" >&2
    exit 0
fi

# one runs round $2's measurement in the tree $1.
one() {
    if [ "$workload" = micro ]; then
        micro "$1" 1
    else
        run "$1" "$2"
    fi
}

i=1
while [ "$i" -le "$n" ]; do
    if [ -z "$parent" ]; then
        one "$here" "$i"
    elif [ $((i % 2)) -eq 1 ]; then
        one "$parent" "$i"
        one "$here" "$i"
    else
        one "$here" "$i"
        one "$parent" "$i"
    fi
    i=$((i + 1))
done
echo "benchrec: appended $n rounds to BENCH_$workload.json" >&2
