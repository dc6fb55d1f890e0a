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
go test -race ./internal/obs/... ./internal/serve/... ./internal/metrics/... ./internal/infer/... ./internal/mapmatch/... ./internal/quality/... ./internal/traffic/... ./internal/recorder/... ./internal/replay/... ./internal/citysim/... ./cmd/tteserve/
go test -race -run 'ConcurrentSafe|Trace|Parallel|Batched|TrafficCode|ExternalValidation|GoldenBits' ./internal/core/
go test -race -run 'Parallel|GoldenBits' ./internal/embed/
go test -race -run 'GoldenBits|Batch|Concurrent' ./internal/models/

echo "== portable kernel (-tags purego: the golden bits, the batch kernels, the 3×3 conv backward and Adam equivalence tests, fused ≡ per-sample, the traffic-code memo, the skip-gram kernel against its reference and the overflowing-LR error without the amd64 assembly)"
go test -tags purego -run 'GoldenBits|AffineBatch|MatMul|ConvBackward|Adam|Fused|TrafficCode|LSTM' ./internal/tensor/ ./internal/nn/ ./internal/core/ ./internal/models/
go test -tags purego -run 'GoldenBits|MatchesReference|NonFinite' ./internal/embed/

echo "== portable bits (no fused multiply-add in the model's or the serving path's packages on arm64, ppc64le, s390x, riscv64, nor in any assembly)"
./scripts/fma.sh

echo "== dead code (every function of every package is linked into a binary)"
./scripts/deadcode.sh

echo "== fuzz smoke (12 targets, 5 s each: guided negative sampler against the binary search it replaced; the SIMD skip-gram pair update, the SIMD dot kernels (dotRows, and dotCols with A transposed and a strided panel), the 3×3 conv backward's lane kernel and the four-lane Adam against their portable bodies; the /estimate decoder and encoder and the /probes decoder against encoding/json; /feedback bodies against a real quality monitor; flight-recorder segment files; model checkpoints; OD endpoint and probe snapping at any query point against the ring walks)"
go test -run '^$' -fuzz FuzzGuidedSampler -fuzztime 5s ./internal/embed/
go test -run '^$' -fuzz FuzzPairKernel -fuzztime 5s ./internal/embed/
go test -run '^$' -fuzz FuzzDotRows -fuzztime 5s ./internal/tensor/
go test -run '^$' -fuzz FuzzConvBackward -fuzztime 5s ./internal/tensor/
go test -run '^$' -fuzz FuzzAdamStep -fuzztime 5s ./internal/nn/
go test -run '^$' -fuzz FuzzDecodeEstimate -fuzztime 5s ./internal/serve/
go test -run '^$' -fuzz FuzzDecodeProbes -fuzztime 5s ./internal/serve/
go test -run '^$' -fuzz FuzzEncodeEstimate -fuzztime 5s ./internal/serve/
go test -run '^$' -fuzz FuzzFeedback -fuzztime 5s ./internal/serve/
go test -run '^$' -fuzz FuzzReadSegment -fuzztime 5s ./internal/recorder/
go test -run '^$' -fuzz FuzzLoadCheckpoint -fuzztime 5s ./internal/core/
go test -run '^$' -fuzz FuzzNearestEdge -fuzztime 5s ./internal/roadnet/

echo "== tracebench gate (untraced span: setter overhead in ns; untraced stages: a cold request's ten stages against their clock-and-atomics floor, exemplars off; a span and the whole sequence 0 allocations)"
go test -run 'TestUntracedSpanOverhead|TestTelemetryDisabledOverhead|TestUntracedSpanAllocs' ./internal/obs/

echo "== engine gate (disabled serve-path hooks: no observer, no traffic source, the request counter; ns and 0 allocations each; a whole Do: 0 allocations on a cache hit, 1 on a miss)"
go test -run 'TestDisabledPathOverhead|TestAnswerDisabledOverhead|TestEngineAllocs' ./internal/infer/

echo "== bench smoke (internal/infer: BenchmarkDirect is the floor under BenchmarkEngineNoCache, BenchmarkEngineMiss the default cache at a 100 % miss rate, BenchmarkEngineCachedObserved a cache hit with the quality monitor and the flight recorder wired; the /estimate codec; internal/obs spans; internal/core estimates at B = 1 and batched: traffic-code memo hit/miss; one optimizer step at B = 1, 8, 32 on 1 and 2 workers; embedding pre-training on the line and temporal graphs; one ST-NN and MURAT estimate and one whole Train of each; the affine kernel; the dot kernel, portable and dispatched; OD endpoint matching and one probe's candidate query; a probe fleet through one Tracker and the /probes decoder; the pre-training and training kernels; a speed matrix's first touch and order synthesis)"
go test -run '^$' -bench=. -benchtime=200ms -benchmem ./internal/infer/
go test -run '^$' -bench 'BenchmarkEstimateCodec' -benchtime=100ms -benchmem ./internal/serve/
go test -run '^$' -bench 'BenchmarkEstimate' -benchtime=100ms -benchmem ./internal/core/
go test -run '^$' -bench 'BenchmarkTrainStep|BenchmarkPretrainEmbeddings' -benchtime=100ms -benchmem ./internal/core/
go test -run '^$' -bench 'BenchmarkDeepBaselineEstimate|BenchmarkDeepBaselineTrain' -benchtime=100ms -benchmem ./internal/models/
go test -run '^$' -bench 'BenchmarkAffineBatchInto' -benchtime=100ms ./internal/tensor/
go test -run '^$' -bench 'BenchmarkDotRows' -benchtime=100ms -benchmem ./internal/tensor/
go test -run '^$' -bench 'BenchmarkSpan|BenchmarkTraceStoreOffer' -benchtime=100ms ./internal/obs/
go test -run '^$' -bench 'BenchmarkNearestEdge|BenchmarkNearestInto' -benchtime=100ms -benchmem ./internal/roadnet/
go test -run '^$' -bench 'BenchmarkMatchOD' -benchtime=100ms .
go test -run '^$' -bench 'BenchmarkTrackerAdvance' -benchtime=100ms -benchmem ./internal/mapmatch/
go test -run '^$' -bench 'BenchmarkDecodeProbes' -benchtime=100ms -benchmem ./internal/serve/
go test -run '^$' -bench 'BenchmarkTrainSkipGram|BenchmarkNegSample|BenchmarkGenerateWalks' -benchtime=100ms -benchmem ./internal/embed/
go test -run '^$' -bench 'BenchmarkConv2DColumn|BenchmarkConv2DBackward|BenchmarkAffineBatchBackward' -benchtime=100ms ./internal/tensor/
go test -run '^$' -bench 'BenchmarkMatrixAtFirstTouch|BenchmarkGenerate' -benchtime=100ms -benchmem ./internal/citysim/

echo "== load harness smoke (go run ./bench, 2 s a workload: every HTTP answer bit-equal to the model's, zero failed operations; rates are bench -compare's job)"
for w in estimate-cold estimate-hot estimate-live train; do
    go run ./bench -workload "$w" -seconds 2
done

echo "== replay smoke (record a serve session, replay against the same checkpoint: zero unexplained and zero explained diffs)"
go run ./cmd/ttereplay -smoke -smoke-orders 200 -smoke-requests 48 \
    -gate-unexplained 0 -out "${TMPDIR:-/tmp}/BENCH_replay.json"

echo "ok"
