#!/bin/sh
# check.sh — the PR gate: build, vet, formatting, the full test suite, and
# a race-detector pass over the concurrent packages (the obs registry and
# the serving layer are exercised under -race on every run).
set -eu
cd "$(dirname "$0")/.."

echo "== go build"
go build ./...

echo "== go vet"
go vet ./...

echo "== gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go test"
go test ./...

echo "== go test -race (concurrent packages)"
go test -race ./internal/obs/... ./internal/serve/... ./internal/metrics/... ./internal/infer/... ./internal/mapmatch/... ./internal/quality/... ./internal/slo/... ./internal/prof/... ./internal/traffic/... ./internal/recorder/... ./internal/replay/... ./internal/telemetry/... ./internal/citysim/...
go test -race -run 'ConcurrentSafe|Trace|Parallel|TrafficCode|ExternalValidation' ./internal/core/
go test -race -run 'Parallel' ./internal/embed/

echo "== tracebench gate (untraced span: setter overhead in ns, whole StartSpan+End in allocations)"
go test -run 'TestUntracedSpanOverhead|TestUntracedSpanAllocs' ./internal/obs/

echo "== quality gate (disabled quality-monitor stamp overhead)"
go test -run 'TestPredictionStampDisabledOverhead' ./internal/infer/

echo "== slo gate (per-request SLO accounting overhead)"
go test -run 'TestSLORequestAccountingOverhead' ./internal/infer/

echo "== traffic gate (disabled live-traffic overhead on the serve path)"
go test -run 'TestTrafficDisabledOverhead' ./internal/infer/

echo "== flight-recorder gate (disabled wide-event capture overhead)"
go test -run 'TestFlightDisabledOverhead' ./internal/infer/

echo "== telemetry gate (disabled exemplar-path histogram overhead)"
go test -run 'TestTelemetryDisabledOverhead' ./internal/obs/

echo "== bench smoke (internal/infer + internal/obs spans + internal/core estimates: traffic-code memo hit/miss, fused + OD endpoint matching)"
go test -run '^$' -bench=. -benchtime=200ms ./internal/infer/
go test -run '^$' -bench 'BenchmarkEstimate' -benchtime=100ms ./internal/core/
go test -run '^$' -bench 'BenchmarkSpan|BenchmarkTraceStoreOffer' -benchtime=100ms ./internal/obs/
go test -run '^$' -bench 'BenchmarkNearestEdge' -benchtime=100ms ./internal/roadnet/
go test -run '^$' -bench 'BenchmarkMatchOD' -benchtime=100ms .

echo "== servebench batch sweep (uncached QPS vs MaxBatch, fused vs matvec; gate CPU-aware)"
go run ./cmd/ttebench -servebench -servebench-batch-only -servebench-duration 1s \
    -servebench-conc 16 -servebench-orders 200 -servebench-ods 100 \
    -servebench-out BENCH_serve_sweep.json -servebench-fused-gate 1.02

echo "== trainbench smoke (data-parallel training throughput; gate CPU-aware)"
go run ./cmd/ttebench -trainbench -trainbench-orders 200 -trainbench-steps 10 \
    -trainbench-workers 1,2,4 -trainbench-gate 2

echo "== ingestbench smoke (probe firehose throughput + read degradation; gates CPU-aware)"
go run ./cmd/ttebench -ingestbench -ingestbench-duration 2s -ingestbench-orders 200 \
    -ingestbench-vehicles 150 -ingestbench-gate-probes 50000 -ingestbench-gate-degrade 0.2

echo "== replay smoke (record a serve session, replay against the same checkpoint: zero unexplained diffs)"
go run ./cmd/ttereplay -smoke -smoke-orders 200 -smoke-requests 48 \
    -gate-unexplained 0 -out BENCH_replay.json

echo "ok"
