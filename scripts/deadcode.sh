#!/bin/sh
# deadcode.sh — fails when a function declared in a non-test file of
# internal/tensor, internal/nn or the world-building packages (citysim,
# roadnet, geo) is linked into none of the module's binaries. Every main package (go list) is built with inlining off, so a
# function that is called anywhere keeps its own symbol, and the linker's
# dead-code elimination drops the rest; a declared function missing from
# every binary's `go tool nm` output has no non-test caller. A naive
# reference that only a test compares against belongs in that test's
# _test.go file, not here. An assembly function's symbol carries its ABI
# (pkg.F.abi0) and counts as pkg.F.
#
# $allow lists the functions another package needs although no binary
# links them: mapmatch.Matcher.Match, the offline raw-GPS matcher that
# deepod.NewMatcher hands out, ranks its Viterbi candidates with
# EdgeIndex.Nearest (whose tie order mapmatch's golden test pins), and
# mapmatch's tests route with FreeFlowCost. Both go when Match is either
# linked into a binary or deleted.
set -eu
cd "$(dirname "$0")/.."

dirs="internal/tensor internal/nn internal/citysim internal/roadnet internal/geo"
mod=$(go list -m)
allow="$mod/internal/roadnet.(*EdgeIndex).Nearest
$mod/internal/roadnet.FreeFlowCost"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

i=0
for pkg in $(go list -f '{{if eq .Name "main"}}{{.ImportPath}}{{end}}' ./...); do
    i=$((i + 1))
    go build -gcflags=all=-l -o "$tmp/bin$i" "$pkg"
    go tool nm "$tmp/bin$i" | awk '{ sub(/\.abi0$/, "", $NF); print $NF }' >>"$tmp/nm"
done
{ cat "$tmp/nm"; echo "$allow"; } | sort -u >"$tmp/linked"

# Declared functions as the linker names them: pkg.F, pkg.T.M, pkg.(*T).M.
for dir in $dirs; do
    for f in "$dir"/*.go; do
        case $f in *_test.go) continue ;; esac
        sed -n -E \
            -e 's/^func \(([A-Za-z0-9_]+ )?\*([A-Za-z0-9_]+)\) ([A-Za-z0-9_]+).*/(*\2).\3/p' \
            -e 's/^func \(([A-Za-z0-9_]+ )?([A-Za-z0-9_]+)\) ([A-Za-z0-9_]+).*/\2.\3/p' \
            -e 's/^func ([A-Za-z0-9_]+).*/\1/p' "$f" |
            grep -v '^init$' | sed "s|^|$mod/$dir.|" |
            while read -r sym; do echo "$sym $f"; done
    done
done | sort -k1,1 >"$tmp/declared"

dead=$(awk 'NR == FNR { linked[$1] = 1; next } !($1 in linked)' "$tmp/linked" "$tmp/declared")
if [ -n "$dead" ]; then
    echo "deadcode.sh: declared in $dirs but linked into no binary ($i built):" >&2
    echo "$dead" >&2
    exit 1
fi
echo "deadcode.sh: every function of $dirs is linked into one of $i binaries"
