package core

import (
	"context"
	"fmt"
	"sync"

	"deepod/internal/nn"
	"deepod/internal/obs"
	"deepod/internal/tensor"
	"deepod/internal/traj"
)

// The eval forward. Online estimation (Algorithm 1: M_O then M_E) has one
// implementation at every batch size: B matched ODs are encoded as one
// [B×odDim] feature matrix and pushed through the OD encoder MLP and the
// estimator head as matrix-matrix products on a pooled arena — no autodiff
// tape. Estimate is the B = 1 case of the same kernel. The external branch
// — the conv stack and extMLP, Formula 18 — runs only on a memo miss: its
// output comes row by row from the memo behind externalCode, which holds
// Formula 18's output per (speed matrix, weather). Every MLP — extMLP on a
// miss, odMLP, estMLP — runs through tensor.AffineBatchInto, which reduces
// each output element sequentially, so row r of a batch is
// Float64bits-identical to the same OD estimated alone and to the training
// forward's row for it (encode.go; fused_test.go and batch_test.go hold that
// reference).

// fusedArenas recycles the arenas that hold one forward's [B×d] activation
// matrices, so a steady-state estimate allocates nothing for them. Arenas
// are model-independent: they carry no parameter state.
var fusedArenas = sync.Pool{New: func() any { return new(tensor.Arena) }}

// Estimate runs the online estimation of Algorithm 1: encode the OD input
// with M_O and decode the travel time with M_E. The result is in seconds.
// The two stages record into tte_span_seconds{span="encode"|"estimate"}.
// Safe for concurrent use.
func (m *Model) Estimate(od *traj.MatchedOD) float64 {
	return m.EstimateCtx(context.Background(), od)
}

// EstimateCtx is Estimate with trace context: when ctx carries a trace
// (a request through internal/serve and internal/infer), the encode and
// estimate stages appear as sibling child spans in the request's tree.
// The aggregate histograms are recorded either way.
func (m *Model) EstimateCtx(ctx context.Context, od *traj.MatchedOD) float64 {
	ar := fusedArenas.Get().(*tensor.Arena)
	ar.Reset()
	y := m.forward(ctx, ar, 1, func(int) *traj.MatchedOD { return od })
	sec := m.seconds(y.Data[0])
	fusedArenas.Put(ar)
	return sec
}

// EstimateBatchFused estimates many OD inputs in one [B×d] forward (Table 5
// times 1000 of these). Element i is bit-identical to Estimate(&ods[i]).
func (m *Model) EstimateBatchFused(ods []traj.MatchedOD) []float64 {
	return m.EstimateBatchFusedCtx(context.Background(), ods)
}

// EstimateBatchFusedCtx is EstimateBatchFused with trace context: the batch
// is one "estimate_batch" span (count and fused attributes) whose children
// are a single batched encode stage and a single batched estimate stage.
// Safe for concurrent use.
func (m *Model) EstimateBatchFusedCtx(ctx context.Context, ods []traj.MatchedOD) []float64 {
	out := make([]float64, len(ods))
	if len(ods) == 0 {
		return out
	}
	bctx, span := obs.StartSpan(ctx, stageEstimateBatch)
	span.SetInt("count", len(ods))
	span.SetInt("fused", 1)
	defer span.End()

	ar := fusedArenas.Get().(*tensor.Arena)
	defer fusedArenas.Put(ar)
	ar.Reset()
	y := m.forward(bctx, ar, len(ods), func(i int) *traj.MatchedOD { return &ods[i] })
	for i := range out {
		out[i] = m.seconds(y.Data[i])
	}
	return out
}

// forward is the eval forward over n ODs, at(i) being row i: the encode
// stage builds Z⁹ and runs MLP1, the estimate stage runs MLP2, the second
// starting where the first ends. It returns the estimator's [n×1] output
// in model units, carved out of ar.
func (m *Model) forward(ctx context.Context, ar *tensor.Arena, n int, at func(int) *traj.MatchedOD) *tensor.Tensor {
	_, span := obs.StartSpan(ctx, stageEncode)
	code := m.odMLP.ForwardBatch(ar, m.odFeatureMatrix(ar, n, at)) // Formula 19
	_, span = span.Next(ctx, stageEstimate)
	y := m.estMLP.ForwardBatch(ar, code) // Formula 20
	span.End()
	return y
}

// seconds scales the estimator's output to seconds, clamped at zero.
func (m *Model) seconds(y float64) float64 {
	sec := y * m.timeScale
	if sec < 0 {
		sec = 0
	}
	return sec
}

// odFeatureMatrix assembles the Z⁹ feature matrix for n ODs: one row per
// OD, laid out exactly as encodeODs concatenates its parts on the training
// tape. The external code of each row comes from externalCode (Formula
// 18, one row at a time); everything else is a pure copy of embedding rows
// and scalar features, so every value equals the training forward bit for
// bit.
func (m *Model) odFeatureMatrix(ar *tensor.Arena, n int, at func(int) *traj.MatchedOD) *tensor.Tensor {
	z9 := ar.New(n, m.odDim)
	for i := 0; i < n; i++ {
		od := at(i)
		row := z9.Data[i*m.odDim : (i+1)*m.odDim]
		off := 0
		if m.cfg.NoSpatial {
			row[0], row[1] = m.edgeFracNorm(od.OriginEdge, od.RStart)
			row[2], row[3] = m.edgeFracNorm(od.DestEdge, 1-od.REnd)
			off = 4
		} else {
			off += m.embedRow(m.roadEmb, int(od.OriginEdge), row[off:])
			off += m.embedRow(m.roadEmb, int(od.DestEdge), row[off:])
		}
		if m.cfg.TimeInit == TimeStamp {
			row[off] = od.DepartSec
			off++
		} else {
			off += m.embedRow(m.slotEmb, m.weekSlotIndex(od.DepartSec), row[off:])
			row[off] = m.slotter.NormalizedRemainder(od.DepartSec)
			off++
		}
		if !m.cfg.NoExternal {
			m.externalCode(ar, od.External, row[off:off+m.cfg.D6m]) // Formula 18
			off += m.cfg.D6m
		}
		row[off] = od.RStart
		row[off+1] = od.REnd
		off += 2
		if off != m.odDim {
			panic(fmt.Sprintf("core: fused Z9 row size %d != expected %d", off, m.odDim))
		}
	}
	return z9
}

// embedRow copies embedding row id into dst, with the same range check as
// Embedding.LookupRows, returning the embedding width.
func (m *Model) embedRow(e *nn.Embedding, id int, dst []float64) int {
	if id < 0 || id >= e.V {
		panic(fmt.Sprintf("nn: embedding %q id %d out of range [0,%d)", e.W.Name, id, e.V))
	}
	copy(dst[:e.Dim], e.W.Value.Data[id*e.Dim:(id+1)*e.Dim])
	return e.Dim
}
