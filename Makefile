# Convenience targets; `make check` is the PR gate (see scripts/check.sh).

.PHONY: build test check race fmt bench tracebench enginebench replaybench matchbench

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
