# Convenience targets; `make check` is the PR gate (see scripts/check.sh).

.PHONY: build test check race fmt bench tracebench enginebench replaybench matchbench experiments

build:
	go build ./...

test:
	go test ./...

check:
	./scripts/check.sh

race:
	go test -race ./internal/obs/... ./internal/serve/... ./internal/metrics/... ./internal/infer/... ./internal/mapmatch/... ./internal/quality/... ./internal/traffic/... ./internal/recorder/... ./internal/replay/... ./internal/citysim/... ./cmd/tteserve/
	go test -race -run 'ConcurrentSafe|Trace|Parallel|Batched|TrafficCode|ExternalValidation|GoldenBits' ./internal/core/
	go test -race -run 'Parallel|GoldenBits' ./internal/embed/
	go test -race -run 'GoldenBits|Batch|Concurrent' ./internal/models/

fmt:
	gofmt -w .

bench:
	go run ./bench -workload estimate-cold
	go run ./bench -workload estimate-hot
	go run ./bench -workload estimate-live
	go run ./bench -workload train

tracebench:
	go test -run 'TestUntracedSpanOverhead|TestTelemetryDisabledOverhead|TestUntracedSpanAllocs' -v ./internal/obs/
	go test -run '^$$' -bench 'BenchmarkSpan|BenchmarkTraceStoreOffer' ./internal/obs/

enginebench:
	go test -run 'TestDisabledPathOverhead|TestAnswerDisabledOverhead|TestEngineAllocs' -v ./internal/infer/

matchbench:
	go test -run '^$$' -bench 'BenchmarkNearestEdge|BenchmarkNearestInto' -benchmem ./internal/roadnet/

replaybench:
	go run ./cmd/ttereplay -smoke -gate-unexplained 0

# The shape-scale record EXPERIMENTS.md quotes, stamped with the commit it ran
# at (commit on a clean tree first). The run writes outside the tree and the
# file moves in after it: a redirect straight into the tracked file would
# dirty the tree before the build reads its VCS state, stamping "+modified".
experiments:
	go run -buildvcs=true ./cmd/ttebench -scale shape > $${TMPDIR:-/tmp}/shape.golden
	mv $${TMPDIR:-/tmp}/shape.golden internal/experiments/testdata/shape.golden
