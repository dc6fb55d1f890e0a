#!/bin/sh
# deadcode.sh — fails when a function declared in a non-test file of any
# non-main package of the module (the root package and every package
# under internal/) is linked into none of the module's binaries. Every
# main package (go list) is built with inlining off, so a function that is
# called anywhere keeps its own symbol, and the linker's dead-code
# elimination drops the rest; a declared function missing from every
# binary's `go tool nm` output has no non-test caller. A naive reference
# that only a test compares against belongs in that test's _test.go file,
# not here.
#
# `go tool nm` names are read whole (an instantiation such as
# pkg.NewRing[go.shape.struct { … }] contains spaces), an assembly
# function's ABI suffix is dropped (pkg.F.abi0 counts as pkg.F), and
# type-argument lists are stripped, so pkg.NewRing[…] counts as
# pkg.NewRing and pkg.(*Ring[…]).Len as the declared pkg.(*Ring).Len.
#
# $allow lists the functions (or, by path, the whole file) no binary links
# that stay anyway, each for its reason:
#   - internal/mapmatch/hmm.go, the offline HMM matcher (MatchCtx and its
#     Viterbi steps), which only tests call until it builds the training
#     trajectories or is deleted (ROADMAP item 11);
#   - roadnet.EdgeIndex.Nearest, which only that matcher calls to rank its
#     candidates (mapmatch's golden test pins its tie order);
#   - roadnet.FreeFlowCost, which the roadnet and mapmatch tests route with;
#   - obs.TraceHandler.WithGroup, which the slog.Handler interface requires.
set -eu
cd "$(dirname "$0")/.."

mod=$(go list -m)
pkgs=$(go list -f '{{if ne .Name "main"}}{{.ImportPath}}{{end}}' ./...)
allow="internal/mapmatch/hmm.go
$mod/internal/roadnet.(*EdgeIndex).Nearest
$mod/internal/roadnet.FreeFlowCost
$mod/internal/obs.(*TraceHandler).WithGroup"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

i=0
for pkg in $(go list -f '{{if eq .Name "main"}}{{.ImportPath}}{{end}}' ./...); do
    i=$((i + 1))
    go build -gcflags=all=-l -o "$tmp/bin$i" "$pkg"
    go tool nm "$tmp/bin$i" >>"$tmp/nm"
done
# Drop address and type, the ABI suffix, then the type-argument lists from
# the innermost bracket out.
sed -E -e 's/^ *[0-9a-f]* +[A-Za-z] //' -e 's/\.abi0$//' \
    -e ':strip' -e 's/\[[^][]*\]//g' -e 't strip' "$tmp/nm" >"$tmp/names"
{ cat "$tmp/names"; echo "$allow"; } | sort -u >"$tmp/linked"

# Declared functions as the linker names them: pkg.F, pkg.T.M, pkg.(*T).M,
# with any receiver type parameters ([T], [K, V]) dropped.
for path in $pkgs; do
    dir=${path#"$mod"}
    dir=.${dir:+/${dir#/}}
    for f in "$dir"/*.go; do
        case $f in *_test.go) continue ;; esac
        sed -n -E \
            -e 's/^func \(([A-Za-z0-9_]+ )?\*([A-Za-z0-9_]+)(\[[^]]*\])?\) ([A-Za-z0-9_]+).*/(*\2).\4/p' \
            -e 's/^func \(([A-Za-z0-9_]+ )?([A-Za-z0-9_]+)(\[[^]]*\])?\) ([A-Za-z0-9_]+).*/\2.\4/p' \
            -e 's/^func ([A-Za-z0-9_]+).*/\1/p' "$f" |
            grep -v '^init$' | sed "s|^|$path.|" |
            while read -r sym; do echo "$sym ${f#./}"; done
    done
done | sort -k1,1 >"$tmp/declared"

n=$(echo "$pkgs" | wc -l)
dead=$(awk 'NR == FNR { linked[$0] = 1; next } !($1 in linked) && !($2 in linked)' "$tmp/linked" "$tmp/declared")
if [ -n "$dead" ]; then
    echo "deadcode.sh: declared in one of $n packages but linked into no binary ($i built):" >&2
    echo "$dead" >&2
    exit 1
fi
echo "deadcode.sh: every function of all $n non-main packages is linked into one of $i binaries"
