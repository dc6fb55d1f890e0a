package core

import (
	"fmt"

	"deepod/internal/citysim"
	"deepod/internal/nn"
	"deepod/internal/roadnet"
	"deepod/internal/traj"
)

// maxSpeedNorm normalizes speed-grid cells (m/s) to roughly [0, 1].
const maxSpeedNorm = 16.0

// encodeTimeInterval implements the Time Interval Encoder of Figure 6 /
// Formulas 4–11: the slots covered by [enter, exit] are embedded, stacked
// into Dt ∈ R^{Δd×dt}, passed through the ResNet block (three convs with
// channel sizes 4, 8, 1; identity shortcut), average-pooled per column, and
// merged with the two remainders by a two-layer MLP into tcode.
func (m *Model) encodeTimeInterval(tp *nn.Tape, enter, exit float64) *nn.Node {
	if m.cfg.TimeInit == TimeStamp {
		// T-stamp variant: raw timestamps straight into an MLP.
		raw := tp.ConstVec(enter, exit)
		return m.tieStampMLP.Forward(tp, raw)
	}
	s1, r1 := m.slotter.Split(enter)
	s2, r2 := m.slotter.Split(exit)
	span := s2 - s1 + 1 // Δd (Formula 4)
	if span < 1 {
		panic(fmt.Sprintf("core: negative interval [%v, %v]", enter, exit))
	}
	// Clamp pathological spans (a trajectory stuck on one segment for
	// hours) to bound the conv cost.
	const maxSpan = 16
	if span > maxSpan {
		span = maxSpan
	}
	rows := make([]*nn.Node, span)
	for i := 0; i < span; i++ {
		abs := s1 + i
		idx := m.weekSlotIndexOfSlot(abs)
		rows[i] = m.slotEmb.Lookup(tp, idx)
	}
	dt := m.cfg.Dt
	dmat := tp.StackRows(rows...)                // Dt ∈ R^{Δd×dt}
	x := tp.Reshape(dmat, 1, span, dt)           // 1×Δd×dt tensor
	z1 := m.tieConv1.Forward(tp, x)              // Formula 5
	z2 := m.tieConv2.Forward(tp, z1)             // Formula 6
	z3 := m.tieConv3.Forward(tp, z2)             // Formula 7
	z4 := tp.Add(dmat, tp.Reshape(z3, span, dt)) // Formula 8: Dt ⊕ Z³
	z5 := tp.MeanCols(z4)                        // Formula 10: average pooling
	z6 := tp.Concat(z5, tp.ConstVec(r1/m.slotter.Delta, r2/m.slotter.Delta))
	return m.tieMLP.Forward(tp, z6) // Formula 11
}

// weekSlotIndexOfSlot maps an absolute slot number onto the embedding row.
func (m *Model) weekSlotIndexOfSlot(slot int) int {
	ws := m.slotter.WeekSlot(slot)
	if m.cfg.TimeInit == TimeDayGraph {
		return m.slotter.SlotOfDay(ws)
	}
	return ws
}

// encodeTrajectory implements the Trajectory Encoder of Figure 7 /
// Formulas 12–17: each step's time-interval code and road-segment embedding
// are concatenated into D^st and consumed by the LSTM; the final hidden
// state is merged with the position ratios by a two-layer MLP into stcode.
func (m *Model) encodeTrajectory(tp *nn.Tape, t *traj.Trajectory) *nn.Node {
	if m.cfg.NoTrajectory {
		panic("core: encodeTrajectory called with NoTrajectory set")
	}
	steps := make([]*nn.Node, len(t.Path))
	for i, s := range t.Path {
		var parts []*nn.Node
		if !m.cfg.NoTemporal {
			parts = append(parts, m.encodeTimeInterval(tp, s.Enter, s.Exit))
		}
		if m.cfg.NoSpatial {
			x, y := m.edgeMidNorm(s.Edge)
			parts = append(parts, tp.ConstVec(x, y))
		} else {
			parts = append(parts, m.roadEmb.Lookup(tp, int(s.Edge)))
		}
		steps[i] = tp.Concat(parts...)
	}
	h := m.lstm.Forward(tp, steps)
	z7 := tp.Concat(h, tp.ConstVec(t.RStart, t.REnd))
	return m.trajMLP.Forward(tp, z7) // Formula 17
}

// encodeExternal implements the External Features Encoder (§4.5 /
// Formula 18): a one-hot weather vector and a CNN-compressed speed matrix
// are concatenated and passed through a two-layer MLP into ocode. The tape
// carries the CNN itself, for its gradients; inference reads the memoised
// traffic code instead (externalZ8Row, behind the eval forward of fused.go).
func (m *Model) encodeExternal(tp *nn.Tape, ext *traj.ExternalFeatures) *nn.Node {
	// A nil bundle (external features unavailable for this record) keeps
	// the zero one-hot, and without a speed matrix the traffic code is
	// zero too. Keeps the model usable on partial data.
	wea := tp.Alloc(citysim.WeatherTypes)
	var dtraf *nn.Node
	if ext != nil {
		if checkExternal(ext) {
			dtraf = m.trafficCNN(tp, ext)
		}
		wea.Data[ext.Weather] = 1
	}
	if dtraf == nil {
		dtraf = tp.Const(tp.Alloc(m.cfg.Dtraf))
	}
	z8 := tp.Concat(tp.Const(wea), dtraf)
	return m.extMLP.Forward(tp, z8) // Formula 18
}

// encodeOD implements M_O (§4.6 / Formula 19): the embeddings of the
// matched origin/destination segments, the departure slot embedding, the
// external code and the float features (r[1], r[-1], tr) are concatenated
// into Z⁹ and transformed by MLP1 into code.
func (m *Model) encodeOD(tp *nn.Tape, od *traj.MatchedOD) *nn.Node {
	var parts []*nn.Node
	if m.cfg.NoSpatial {
		x1, y1 := m.edgeFracNorm(od.OriginEdge, od.RStart)
		x2, y2 := m.edgeFracNorm(od.DestEdge, 1-od.REnd)
		parts = append(parts, tp.ConstVec(x1, y1, x2, y2))
	} else {
		parts = append(parts,
			m.roadEmb.Lookup(tp, int(od.OriginEdge)),
			m.roadEmb.Lookup(tp, int(od.DestEdge)))
	}
	if m.cfg.TimeInit == TimeStamp {
		// Raw seconds, deliberately unscaled: T-stamp reproduces the
		// paper's finding that huge magnitudes swamp the other features.
		parts = append(parts, tp.ConstVec(od.DepartSec))
	} else {
		idx := m.weekSlotIndex(od.DepartSec)
		parts = append(parts, m.slotEmb.Lookup(tp, idx))
		parts = append(parts, tp.ConstVec(m.slotter.NormalizedRemainder(od.DepartSec)))
	}
	if !m.cfg.NoExternal {
		parts = append(parts, m.encodeExternal(tp, od.External))
	}
	parts = append(parts, tp.ConstVec(od.RStart, od.REnd))
	z9 := tp.Concat(parts...)
	if z9.Value.Size() != m.odDim {
		panic(fmt.Sprintf("core: Z9 size %d != expected %d", z9.Value.Size(), m.odDim))
	}
	return m.odMLP.Forward(tp, z9) // Formula 19
}

// edgeFracNorm returns the normalized coordinates of the point at fraction
// frac along edge e.
func (m *Model) edgeFracNorm(e roadnet.EdgeID, frac float64) (float64, float64) {
	return m.normPoint(m.g.PointAlongEdge(e, frac))
}
