package core

import (
	"context"
	"fmt"
	"sync"

	"deepod/internal/citysim"
	"deepod/internal/nn"
	"deepod/internal/obs"
	"deepod/internal/tensor"
	"deepod/internal/traj"
)

// The fused batched inference path: an admission batch of B matched ODs is
// encoded as one [B×odDim] feature matrix and pushed through the OD encoder
// MLP and the estimator head as matrix-matrix products, instead of B
// independent tape walks. The external-features conv stack has no batched
// kernel; its code comes row by row from the memo behind externalZ8Row. Every
// MLP — extMLP, odMLP, estMLP — runs through tensor.AffineBatchInto, which keeps
// reductions sequential per output element, so the fused result is
// Float64bits-identical to EstimateBatch. Flight-recorder replay
// (internal/replay, which pins MaxBatch=1) therefore reproduces fused-engine
// recordings with zero unexplained diffs.

// fusedArenas recycles the arenas that hold one fused forward's [B×d]
// activation matrices. Pooled like evalTapes so steady-state batches
// allocate only their output slice.
var fusedArenas = sync.Pool{New: func() any { return new(tensor.Arena) }}

// EstimateBatchFused estimates many OD inputs through the fused [B×d] path.
// Results are bit-identical to EstimateBatch for every batch size.
func (m *Model) EstimateBatchFused(ods []traj.MatchedOD) []float64 {
	return m.EstimateBatchFusedCtx(context.Background(), ods)
}

// EstimateBatchFusedCtx is EstimateBatchFused with trace context: the batch
// is one "estimate_batch" span (count and fused attributes) whose children
// are a single batched encode stage and a single batched estimate stage.
// Batches of one fall back to the per-sample path — there is nothing to
// fuse and the tape path avoids the matrix bookkeeping. Safe for concurrent
// use.
func (m *Model) EstimateBatchFusedCtx(ctx context.Context, ods []traj.MatchedOD) []float64 {
	if len(ods) <= 1 {
		return m.EstimateBatchCtx(ctx, ods)
	}
	bctx, span := obs.StartSpan(ctx, "estimate_batch")
	span.SetInt("count", len(ods))
	span.SetInt("fused", 1)
	defer span.End()

	ar := fusedArenas.Get().(*tensor.Arena)
	defer fusedArenas.Put(ar)
	ar.Reset()

	_, encSpan := obs.StartSpan(bctx, "encode")
	z9 := m.odFeatureMatrix(ar, ods)
	code := m.odMLP.ForwardBatch(ar, z9)
	encSpan.End()

	_, estSpan := obs.StartSpan(bctx, "estimate")
	y := m.estMLP.ForwardBatch(ar, code)
	estSpan.End()

	out := make([]float64, len(ods))
	for i := range out {
		sec := y.Data[i] * m.timeScale
		if sec < 0 {
			sec = 0
		}
		out[i] = sec
	}
	return out
}

// odFeatureMatrix assembles the Z⁹ feature matrix for a batch: one row per
// OD, laid out exactly as encodeOD concatenates its parts. The external code
// rows are produced by extMLP.ForwardBatch over a [B×z8] matrix; everything
// else is a pure copy of embedding rows and scalar features, so every value
// equals the per-sample tape path bit for bit.
func (m *Model) odFeatureMatrix(ar *tensor.Arena, ods []traj.MatchedOD) *tensor.Tensor {
	b := len(ods)
	var ocode *tensor.Tensor // [B, D6m], nil under N-ex
	if !m.cfg.NoExternal {
		z8w := citysim.WeatherTypes + m.cfg.Dtraf
		z8 := ar.New(b, z8w)
		for i := range ods {
			m.externalZ8Row(ods[i].External, z8.Data[i*z8w:(i+1)*z8w])
		}
		ocode = m.extMLP.ForwardBatch(ar, z8)
	}
	z9 := ar.New(b, m.odDim)
	for i := range ods {
		od := &ods[i]
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
		if ocode != nil {
			d6 := m.cfg.D6m
			copy(row[off:off+d6], ocode.Data[i*d6:(i+1)*d6])
			off += d6
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
// Embedding.Lookup, returning the embedding width.
func (m *Model) embedRow(e *nn.Embedding, id int, dst []float64) int {
	if id < 0 || id >= e.V {
		panic(fmt.Sprintf("nn: embedding %q id %d out of range [0,%d)", e.W.Name, id, e.V))
	}
	copy(dst[:e.Dim], e.W.Value.Data[id*e.Dim:(id+1)*e.Dim])
	return e.Dim
}
