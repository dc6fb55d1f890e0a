package core

import (
	"fmt"
	"sort"

	"deepod/internal/citysim"
	"deepod/internal/nn"
	"deepod/internal/roadnet"
	"deepod/internal/traj"
)

// The training forward. A training worker builds one graph over its shard of
// the mini-batch: every activation is a [rows, d] matrix with one record (or
// one trajectory step) a row, so each MLP layer is one affine per batch, each
// embedding lookup one row gather, the time-interval convs one [N, 1, Δd, dt]
// pass per distinct Δd, the traffic CNN one [N, 1, H, W] pass per matrix
// shape, and the trajectory LSTM runs length-packed (nn.LSTM.ForwardPacked).
// Every op computes a row as it would compute it alone, so a record's code,
// stcode and ŷ do not depend on the shard around it, and its code and ŷ are
// Float64bits-equal to what the eval forward (fused.go) serves for its OD.

// maxSpeedNorm normalizes speed-grid cells (m/s) to roughly [0, 1].
const maxSpeedNorm = 16.0

// maxSpan clamps pathological time-interval spans (a trajectory stuck on one
// segment for hours) to bound the conv cost.
const maxSpan = 16

// constRows returns a [rows, cols] constant node whose row r fill writes.
func constRows(tp *nn.Tape, rows, cols int, fill func(r int, row []float64)) *nn.Node {
	t := tp.Alloc(rows, cols)
	for r := 0; r < rows; r++ {
		fill(r, t.Data[r*cols:(r+1)*cols])
	}
	return tp.Const(t)
}

// permute reorders the rows of a so that row i of the result is row
// from[i] of a; the identity permutation is no node at all.
func permute(tp *nn.Tape, a *nn.Node, from []int) *nn.Node {
	for i, f := range from {
		if i != f {
			return tp.GatherRows(a, from)
		}
	}
	return a
}

// inverse returns the inverse of permutation p.
func inverse(p []int) []int {
	inv := make([]int, len(p))
	for i, v := range p {
		inv[v] = i
	}
	return inv
}

// encodeTimeIntervals implements the Time Interval Encoder of Figure 6 /
// Formulas 4–11 for a batch of steps, one tcode row each: the slots covered
// by [enter, exit] are embedded, stacked into Dt ∈ R^{Δd×dt}, passed through
// the ResNet block (three convs with channel sizes 4, 8, 1; identity
// shortcut), average-pooled per column, and merged with the two remainders
// by a two-layer MLP.
//
// The pooled block output Z⁵ depends on the slots alone — the week slot of
// the first and the span Δd — and the steps of a batch cover few of them
// (consecutive road segments mostly fall in one slot). So Z⁵ is computed once
// per distinct (week slot, Δd), each Δd's slot sequences as one conv batch,
// and gathered back to the steps; the MLP then runs per step.
func (m *Model) encodeTimeIntervals(tp *nn.Tape, steps []*traj.Step) *nn.Node {
	if m.cfg.TimeInit == TimeStamp {
		// T-stamp variant: raw timestamps straight into an MLP.
		raw := constRows(tp, len(steps), 2, func(r int, row []float64) {
			row[0], row[1] = steps[r].Enter, steps[r].Exit
		})
		return m.tieStampMLP.Forward(tp, raw)
	}
	type slots struct{ weekSlot, span int }
	type sequence struct{ first, id int } // first absolute slot; index among the distinct
	var bySpan [maxSpan + 1][]sequence
	seen := map[slots]int{}
	of := make([]int, len(steps)) // step → its sequence
	rem := tp.Alloc(len(steps), 2)
	for p, st := range steps {
		s1, r1 := m.slotter.Split(st.Enter)
		s2, r2 := m.slotter.Split(st.Exit)
		span := s2 - s1 + 1 // Δd (Formula 4)
		if span < 1 {
			panic(fmt.Sprintf("core: negative interval [%v, %v]", st.Enter, st.Exit))
		}
		span = min(span, maxSpan)
		k := slots{m.slotter.WeekSlot(s1), span}
		id, ok := seen[k]
		if !ok {
			id = len(seen)
			seen[k] = id
			bySpan[span] = append(bySpan[span], sequence{s1, id})
		}
		of[p] = id
		rem.Data[2*p], rem.Data[2*p+1] = r1/m.slotter.Delta, r2/m.slotter.Delta
	}
	dt := m.cfg.Dt
	var pooled []*nn.Node
	rowOf := make([]int, len(seen)) // sequence → its row among the stacked Z⁵
	row := 0
	for span, seqs := range bySpan {
		if len(seqs) == 0 {
			continue
		}
		n := len(seqs)
		ids := make([]int, n*span)
		for k, sq := range seqs {
			for i := 0; i < span; i++ {
				ids[k*span+i] = m.weekSlotIndexOfSlot(sq.first + i)
			}
			rowOf[sq.id] = row
			row++
		}
		dmat := m.slotEmb.LookupRows(tp, ids)                             // n stacked Dt ∈ R^{Δd×dt}
		x := tp.Reshape(dmat, n, 1, span, dt)                             // n × 1×Δd×dt
		z1 := m.tieConv1.Forward(tp, x)                                   // Formula 5
		z2 := m.tieConv2.Forward(tp, z1)                                  // Formula 6
		z3 := m.tieConv3.Forward(tp, z2)                                  // Formula 7
		z4 := tp.Add(dmat, tp.Reshape(z3, n*span, dt))                    // Formula 8: Dt ⊕ Z³
		pooled = append(pooled, tp.MeanCols(tp.Reshape(z4, n, span, dt))) // Formula 10
	}
	z5 := pooled[0]
	if len(pooled) > 1 {
		z5 = tp.StackRows(pooled...)
	}
	from := make([]int, len(steps))
	for p, id := range of {
		from[p] = rowOf[id]
	}
	z6 := tp.ConcatCols(permute(tp, z5, from), tp.Const(rem))
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

// encodeTrajectories implements the Trajectory Encoder of Figure 7 /
// Formulas 12–17 for a batch, one stcode row per trajectory in ts order:
// each step's time-interval code and road-segment embedding are
// concatenated into D^st and consumed by the LSTM; the final hidden state is
// merged with the position ratios by a two-layer MLP. The LSTM runs over the
// trajectories sorted by length (longest first, ties in ts order), packed
// time-major, so step t costs one affine per gate over the trajectories
// still running.
func (m *Model) encodeTrajectories(tp *nn.Tape, ts []*traj.Trajectory) *nn.Node {
	if m.cfg.NoTrajectory {
		panic("core: encodeTrajectories called with NoTrajectory set")
	}
	byLen := make([]int, len(ts))
	for i := range byLen {
		byLen[i] = i
	}
	sort.SliceStable(byLen, func(p, q int) bool { return len(ts[byLen[p]].Path) > len(ts[byLen[q]].Path) })
	if len(ts[byLen[len(byLen)-1]].Path) == 0 {
		panic("core: empty spatio-temporal path")
	}
	batchSizes := make([]int, len(ts[byLen[0]].Path))
	var steps []*traj.Step
	for t := range batchSizes {
		for _, i := range byLen {
			if len(ts[i].Path) <= t {
				break
			}
			steps = append(steps, &ts[i].Path[t])
			batchSizes[t]++
		}
	}
	var parts []*nn.Node
	if !m.cfg.NoTemporal {
		parts = append(parts, m.encodeTimeIntervals(tp, steps))
	}
	if m.cfg.NoSpatial {
		parts = append(parts, constRows(tp, len(steps), 2, func(r int, row []float64) {
			row[0], row[1] = m.edgeMidNorm(steps[r].Edge)
		}))
	} else {
		edges := make([]int, len(steps))
		for r, st := range steps {
			edges[r] = int(st.Edge)
		}
		parts = append(parts, m.roadEmb.LookupRows(tp, edges))
	}
	h := m.lstm.ForwardPacked(tp, tp.ConcatCols(parts...), batchSizes) // Formulas 12–16
	h = permute(tp, h, inverse(byLen))
	z7 := tp.ConcatCols(h, constRows(tp, len(ts), 2, func(r int, row []float64) {
		row[0], row[1] = ts[r].RStart, ts[r].REnd
	}))
	return m.trajMLP.Forward(tp, z7) // Formula 17
}

// encodeExternals implements the External Features Encoder (§4.5 / Formula
// 18) for a batch, one ocode row per bundle: a one-hot weather vector and a
// CNN-compressed speed matrix are concatenated and passed through a
// two-layer MLP. The tape carries the CNN and the MLP, for their gradients;
// inference reads the memoised output row instead (externalCode, behind the
// eval forward of fused.go).
func (m *Model) encodeExternals(tp *nn.Tape, exts []*traj.ExternalFeatures) *nn.Node {
	// A nil bundle (external features unavailable for this record) keeps
	// the zero one-hot, and without a speed matrix the traffic code is
	// zero too. Keeps the model usable on partial data.
	wea := tp.Alloc(len(exts), citysim.WeatherTypes)
	var withGrid []int
	for r, ext := range exts {
		if ext == nil {
			continue
		}
		if checkExternal(ext) {
			withGrid = append(withGrid, r)
		}
		wea.Data[r*citysim.WeatherTypes+ext.Weather] = 1
	}
	z8 := tp.ConcatCols(tp.Const(wea), m.trafficCodes(tp, exts, withGrid))
	return m.extMLP.Forward(tp, z8) // Formula 18
}

// trafficCodes returns the [len(exts), Dtraf] traffic codes of a batch whose
// rows withGrid carry a checked speed matrix; the other rows are zero.
// Matrices of one shape run through the CNN as one batch.
func (m *Model) trafficCodes(tp *nn.Tape, exts []*traj.ExternalFeatures, withGrid []int) *nn.Node {
	if len(withGrid) == 0 {
		return tp.Const(tp.Alloc(len(exts), m.cfg.Dtraf))
	}
	type shape struct{ rows, cols int }
	var shapes []shape
	byShape := map[shape][]int{}
	for _, r := range withGrid {
		s := shape{exts[r].GridRows, exts[r].GridCols}
		if byShape[s] == nil {
			shapes = append(shapes, s)
		}
		byShape[s] = append(byShape[s], r)
	}
	if len(shapes) == 1 && len(withGrid) == len(exts) {
		return m.trafficCNN(tp, exts)
	}
	// from[r] is row r's code among the stacked group codes; rows without a
	// matrix take the zero row stacked after them.
	from := make([]int, len(exts))
	for r := range from {
		from[r] = len(withGrid)
	}
	var codes []*nn.Node
	at := 0
	for _, s := range shapes {
		group := make([]*traj.ExternalFeatures, len(byShape[s]))
		for k, r := range byShape[s] {
			group[k] = exts[r]
			from[r] = at + k
		}
		at += len(group)
		codes = append(codes, m.trafficCNN(tp, group))
	}
	codes = append(codes, tp.Const(tp.Alloc(1, m.cfg.Dtraf)))
	return tp.GatherRows(tp.StackRows(codes...), from)
}

// encodeODs implements M_O (§4.6 / Formula 19) for a batch, one code row per
// OD: the embeddings of the matched origin/destination segments, the
// departure slot embedding, the external code and the float features (r[1],
// r[-1], tr) are concatenated into Z⁹ and transformed by MLP1.
// odFeatureMatrix lays out the eval forward's Z⁹ rows the same way.
func (m *Model) encodeODs(tp *nn.Tape, ods []*traj.MatchedOD) *nn.Node {
	b := len(ods)
	var parts []*nn.Node
	if m.cfg.NoSpatial {
		parts = append(parts, constRows(tp, b, 4, func(r int, row []float64) {
			row[0], row[1] = m.edgeFracNorm(ods[r].OriginEdge, ods[r].RStart)
			row[2], row[3] = m.edgeFracNorm(ods[r].DestEdge, 1-ods[r].REnd)
		}))
	} else {
		origins, dests := make([]int, b), make([]int, b)
		for r, od := range ods {
			origins[r], dests[r] = int(od.OriginEdge), int(od.DestEdge)
		}
		parts = append(parts, m.roadEmb.LookupRows(tp, origins), m.roadEmb.LookupRows(tp, dests))
	}
	if m.cfg.TimeInit == TimeStamp {
		// Raw seconds, deliberately unscaled: T-stamp reproduces the
		// paper's finding that huge magnitudes swamp the other features.
		parts = append(parts, constRows(tp, b, 1, func(r int, row []float64) { row[0] = ods[r].DepartSec }))
	} else {
		slots := make([]int, b)
		for r, od := range ods {
			slots[r] = m.weekSlotIndex(od.DepartSec)
		}
		parts = append(parts, m.slotEmb.LookupRows(tp, slots), constRows(tp, b, 1, func(r int, row []float64) {
			row[0] = m.slotter.NormalizedRemainder(ods[r].DepartSec)
		}))
	}
	if !m.cfg.NoExternal {
		exts := make([]*traj.ExternalFeatures, b)
		for r, od := range ods {
			exts[r] = od.External
		}
		parts = append(parts, m.encodeExternals(tp, exts))
	}
	parts = append(parts, constRows(tp, b, 2, func(r int, row []float64) { row[0], row[1] = ods[r].RStart, ods[r].REnd }))
	z9 := tp.ConcatCols(parts...)
	if z9.Value.Shape[1] != m.odDim {
		panic(fmt.Sprintf("core: Z9 width %d != expected %d", z9.Value.Shape[1], m.odDim))
	}
	return m.odMLP.Forward(tp, z9) // Formula 19
}

// edgeFracNorm returns the normalized coordinates of the point at fraction
// frac along edge e.
func (m *Model) edgeFracNorm(e roadnet.EdgeID, frac float64) (float64, float64) {
	return m.normPoint(m.g.PointAlongEdge(e, frac))
}
