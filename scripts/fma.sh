#!/bin/sh
# fma.sh — fails when the compiler fuses a multiply and an add in a package
# that trains the model, computes its forward, or generates the data the
# golden tests train on. A fused multiply-add rounds once where separate
# operations round twice, so arm64, ppc64le, s390x and riscv64 would compute
# other last bits than amd64 (which never fuses): a checkpoint trained there,
# or the model's estimate for a matched OD there, would differ from amd64's.
# The serving path (infer, serve, mapmatch, traffic) is held to the same
# rule, so a served answer has amd64's bits too. Products in these packages
# are written float64(a*b), which the Go spec forbids to fuse; this
# cross-compiles the four architectures (no hardware needed) and prints any
# fused op that slipped back in, with its source line. Hand-written assembly
# is outside that guarantee, so any fused multiply-add instruction in a .s
# file under internal/ fails as well.
set -eu
cd "$(dirname "$0")/.."

pkgs="./internal/tensor ./internal/embed ./internal/nn ./internal/core ./internal/models
      ./internal/citysim ./internal/geo ./internal/metrics ./internal/roadnet ./internal/timeslot ./internal/traj
      ./internal/infer ./internal/serve ./internal/mapmatch ./internal/traffic"
asm=$(mktemp)
trap 'rm -f "$asm"' EXIT
status=0
if find internal -name '*.s' -exec grep -nHiE '\bV?F(N)?M(ADD|SUB)[0-9A-Z]*\b' {} + >&2; then
    echo "fma.sh: the assembly above fuses a multiply and an add; multiply and add in separate instructions" >&2
    status=1
fi
for arch in arm64 ppc64le s390x riscv64; do
    # shellcheck disable=SC2086 # $pkgs is a word list
    if ! GOARCH=$arch go build -gcflags=-S $pkgs >"$asm" 2>&1; then
        cat "$asm" >&2
        exit 1
    fi
    if grep -E '[[:space:]](FMADD|FMSUB|FNM|WFM)[A-Z]*[[:space:]]' "$asm" >&2; then
        echo "fma.sh: $arch fuses the multiply-adds above; write each product as float64(a*b)" >&2
        status=1
    fi
done
exit $status
