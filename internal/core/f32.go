package core

import (
	"context"
	"fmt"
	"math"

	"deepod/internal/obs"
	"deepod/internal/roadnet"
	"deepod/internal/tensor"
	"deepod/internal/traj"
)

// Optional float32 serving head. Training is float64 everywhere; EnableF32
// quantizes the estimator head — MLP1 (odMLP) and MLP2 (estMLP), the two
// dense stacks every request passes through — to float32 and serves batches
// through the f32 kernels in internal/tensor. Feature assembly and the
// external conv encoder stay float64, so the quantized surface is exactly
// the pair of MLPs the calibration gate exercises.
//
// Quantization is lossy by construction, so the head is admitted only if
// the relative MAE delta against the float64 path on a calibration set
// stays under the caller's threshold; otherwise EnableF32 returns an error
// and the model keeps serving float64.

// DefaultF32Threshold is the default admission gate for the float32 head:
// the relative MAE delta vs the float64 path must stay under 0.1%.
const DefaultF32Threshold = 1e-3

// maxCalibration caps how many calibration ODs a checkpoint carries.
const maxCalibration = 256

// f32Head holds the quantized estimator-head weights (odMLP then estMLP,
// each W1/b1/W2/b2) plus the dimensions needed to drive the flat kernels.
type f32Head struct {
	odW1, odB1, odW2, odB2     []float32
	estW1, estB1, estW2, estB2 []float32
	in, hid, mid, ehid         int // odDim, D7m, D8m, D9m

	maeDelta float64 // measured at EnableF32 time, for /version reporting
}

func (m *Model) buildF32Head() *f32Head {
	return &f32Head{
		odW1:  tensor.F32FromF64(m.odMLP.L1.W.Value.Data),
		odB1:  tensor.F32FromF64(m.odMLP.L1.B.Value.Data),
		odW2:  tensor.F32FromF64(m.odMLP.L2.W.Value.Data),
		odB2:  tensor.F32FromF64(m.odMLP.L2.B.Value.Data),
		estW1: tensor.F32FromF64(m.estMLP.L1.W.Value.Data),
		estB1: tensor.F32FromF64(m.estMLP.L1.B.Value.Data),
		estW2: tensor.F32FromF64(m.estMLP.L2.W.Value.Data),
		estB2: tensor.F32FromF64(m.estMLP.L2.B.Value.Data),
		in:    m.odDim,
		hid:   m.odMLP.L1.Out,
		mid:   m.odMLP.L2.Out,
		ehid:  m.estMLP.L1.Out,
	}
}

// forward runs the quantized head over a float64 [B×in] feature matrix,
// returning one travel time per row (already scaled and clamped).
func (h *f32Head) forward(z9 *tensor.Tensor, timeScale float64) []float64 {
	b := z9.Shape[0]
	x := tensor.F32FromF64(z9.Data)
	h1 := make([]float32, b*h.hid)
	tensor.AffineBatchF32Into(h1, x, h.odW1, h.odB1, b, h.in, h.hid)
	tensor.ReLUInPlaceF32(h1)
	code := make([]float32, b*h.mid)
	tensor.AffineBatchF32Into(code, h1, h.odW2, h.odB2, b, h.hid, h.mid)
	e1 := make([]float32, b*h.ehid)
	tensor.AffineBatchF32Into(e1, code, h.estW1, h.estB1, b, h.mid, h.ehid)
	tensor.ReLUInPlaceF32(e1)
	y := make([]float32, b)
	tensor.AffineBatchF32Into(y, e1, h.estW2, h.estB2, b, h.ehid, 1)
	out := make([]float64, b)
	for i, v := range y {
		sec := float64(v) * timeScale
		if sec < 0 {
			sec = 0
		}
		out[i] = sec
	}
	return out
}

// SetCalibration records up to maxCalibration matched ODs to be persisted
// with the checkpoint as the float32 admission gate's test set. External
// features are dropped — the quantized surface sits after the external
// encoder, and the checkpoint should not carry speed grids.
func (m *Model) SetCalibration(ods []traj.MatchedOD) {
	n := len(ods)
	if n > maxCalibration {
		n = maxCalibration
	}
	m.calib = make([]traj.MatchedOD, n)
	copy(m.calib, ods[:n])
	for i := range m.calib {
		m.calib[i].External = nil
	}
}

// Calibration returns the stored calibration set (nil for checkpoints that
// predate it).
func (m *Model) Calibration() []traj.MatchedOD { return m.calib }

// synthCalibration derives a deterministic calibration set from the road
// network for checkpoints that carry none: edge pairs spread over the whole
// edge-ID range, departures spread over a week. It exercises every input
// dimension of the quantized head (both embeddings vary, the remainder and
// position ratios vary), which is what the gate needs.
func (m *Model) synthCalibration(n int) []traj.MatchedOD {
	ne := m.g.NumEdges()
	ods := make([]traj.MatchedOD, n)
	for i := range ods {
		ods[i] = traj.MatchedOD{
			OriginEdge: roadnet.EdgeID((i*7919 + 1) % ne),
			DestEdge:   roadnet.EdgeID((i*104729 + 13) % ne),
			RStart:     float64(i%10) / 10,
			REnd:       1 - float64(i%7)/10,
			DepartSec:  float64(i) * 7777.7,
		}
	}
	return ods
}

// EstimateBatchF32Ctx serves a batch through the quantized head when one is
// installed, falling back to the fused float64 path otherwise. Unlike the
// float64 fused path there is no per-sample fallback at B==1: under f32 the
// same request must get the same answer regardless of how it was batched,
// or cache hits and flight-recorder replays would disagree with live serves.
func (m *Model) EstimateBatchF32Ctx(ctx context.Context, ods []traj.MatchedOD) []float64 {
	if m.f32 == nil {
		return m.EstimateBatchFusedCtx(ctx, ods)
	}
	if len(ods) == 0 {
		return m.EstimateBatchCtx(ctx, ods)
	}
	bctx, span := obs.StartSpan(ctx, "estimate_batch")
	span.SetInt("count", len(ods))
	span.SetInt("fused", 1)
	span.SetInt("f32", 1)
	defer span.End()

	ar := fusedArenas.Get().(*tensor.Arena)
	defer fusedArenas.Put(ar)
	ar.Reset()

	_, encSpan := obs.StartSpan(bctx, "encode")
	z9 := m.odFeatureMatrix(ar, ods)
	encSpan.End()
	_, estSpan := obs.StartSpan(bctx, "estimate")
	out := m.f32.forward(z9, m.timeScale)
	estSpan.End()
	return out
}

// EstimateF32Ctx is the per-request f32 entry (the Snapshot.Estimate hook
// when the quantized head is installed): a batch of one through the head.
func (m *Model) EstimateF32Ctx(ctx context.Context, od *traj.MatchedOD) float64 {
	if m.f32 == nil {
		return m.EstimateCtx(ctx, od)
	}
	return m.EstimateBatchF32Ctx(ctx, []traj.MatchedOD{*od})[0]
}

// EnableF32 quantizes the estimator head to float32 and admits it only if
// the relative MAE delta vs the float64 path on the calibration set stays
// under threshold (<= 0 means DefaultF32Threshold). On failure the model is
// left unchanged (float64 serving) and the error says by how much the gate
// was missed. Call before serving — not safe concurrently with Estimate.
func (m *Model) EnableF32(threshold float64) error {
	if threshold <= 0 {
		threshold = DefaultF32Threshold
	}
	calib := m.calib
	if len(calib) == 0 {
		calib = m.synthCalibration(64)
	}
	head := m.buildF32Head()
	ref := m.EstimateBatchFused(calib)
	ar := fusedArenas.Get().(*tensor.Arena)
	ar.Reset()
	got := head.forward(m.odFeatureMatrix(ar, calib), m.timeScale)
	fusedArenas.Put(ar)
	var sumAbs, sumRef float64
	for i := range ref {
		sumAbs += math.Abs(got[i] - ref[i])
		sumRef += math.Abs(ref[i])
	}
	if sumRef == 0 {
		// Degenerate reference (all-zero estimates): gate on the absolute
		// MAE in seconds instead of a 0/0 ratio.
		sumRef = float64(len(ref))
	}
	head.maeDelta = sumAbs / sumRef
	if head.maeDelta > threshold {
		return fmt.Errorf("core: float32 head rejected: relative MAE delta %.3g exceeds threshold %.3g over %d calibration points",
			head.maeDelta, threshold, len(calib))
	}
	m.f32 = head
	return nil
}

// F32Enabled reports whether the quantized serving head passed its gate and
// is installed.
func (m *Model) F32Enabled() bool { return m.f32 != nil }

// F32MAEDelta returns the relative MAE delta measured when the head was
// admitted (0 when disabled).
func (m *Model) F32MAEDelta() float64 {
	if m.f32 == nil {
		return 0
	}
	return m.f32.maeDelta
}
