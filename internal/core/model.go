package core

import (
	"fmt"
	"math/rand"

	"deepod/internal/citysim"
	"deepod/internal/geo"
	"deepod/internal/metrics"
	"deepod/internal/nn"
	"deepod/internal/roadnet"
	"deepod/internal/timeslot"
)

// Model is the DeepOD network of Figure 3: the three modules M_O (OD
// encoder), M_T (trajectory encoder) and M_E (estimator), sharing the
// road-segment and time-slot embedding matrices Ws and Wt.
type Model struct {
	cfg Config
	g   *roadnet.Graph
	ps  *nn.ParamSet
	rng *rand.Rand

	slotter *timeslot.Slotter
	// slotVocab is SlotsPerWeek normally, SlotsPerDay for TimeDayGraph.
	slotVocab int

	// Embedding matrices Ws (Formula 1) and Wt (§4.2).
	roadEmb *nn.Embedding
	slotEmb *nn.Embedding

	// Time Interval Encoder (Figure 6): the ResNet block's three convs
	// (Formulas 5–7) and the MLP of Formula 11.
	tieConv1, tieConv2, tieConv3 *nn.Conv2DLayer
	tieMLP                       *nn.MLP2
	// tieStampMLP replaces the encoder under the T-stamp variant.
	tieStampMLP *nn.MLP2

	// Trajectory Encoder (Figure 7): the LSTM (Formulas 12–16) and the MLP
	// of Formula 17.
	lstm    *nn.LSTM
	trajMLP *nn.MLP2

	// External Features Encoder (§4.5): traffic CNN + MLP of Formula 18.
	extConv1, extConv2, extConv3 *nn.Conv2DLayer
	extProj                      *nn.Linear
	extMLP                       *nn.MLP2
	// traf memoises the traffic code per speed matrix for the eval paths
	// (see trafficcode.go). It belongs to the model, so a reload — a new
	// model — starts empty; Train empties it after every optimizer step.
	traf trafficMemo

	// MLP1 (Formula 19) and MLP2 (Formula 20).
	odMLP  *nn.MLP2
	estMLP *nn.MLP2

	// Normalization constants.
	bounds    geo.Rect
	timeScale float64 // mean training travel time, seconds
	horizon   float64 // dataset horizon, for T-stamp scaling sanity

	// refDist is the test-split absolute-error distribution recorded at
	// training time — the drift reference for internal/quality. Nil for
	// models trained before it existed or never evaluated.
	refDist *metrics.RefDist

	// stepDim is the per-step input size of the LSTM.
	stepDim int
	// odDim is the input size of MLP1 (Z9).
	odDim int
}

// New constructs an untrained DeepOD model over a road network.
func New(cfg Config, g *roadnet.Graph) (*Model, error) {
	return newModel(cfg, g, nn.NewParamSet())
}

// newModel builds the model's layers in ps.
func newModel(cfg Config, g *roadnet.Graph, ps *nn.ParamSet) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.NoSpatial && cfg.NoTemporal && !cfg.NoTrajectory {
		return nil, fmt.Errorf("core: N-sp and N-tp together leave the trajectory encoder without inputs; also set NoTrajectory")
	}
	slotter, err := timeslot.New(cfg.SlotDelta)
	if err != nil {
		return nil, err
	}
	m := &Model{
		cfg:       cfg,
		g:         g,
		ps:        ps,
		rng:       rand.New(rand.NewSource(cfg.Seed)),
		slotter:   slotter,
		bounds:    g.Bounds(),
		timeScale: 600, // replaced by the training-set mean in Train
	}
	m.slotVocab = slotter.SlotsPerWeek
	if cfg.TimeInit == TimeDayGraph {
		m.slotVocab = slotter.SlotsPerDay
	}

	rng := m.rng

	if !cfg.NoSpatial {
		m.roadEmb = nn.NewEmbedding(ps, rng, "Ws", g.NumEdges(), cfg.Ds)
	}
	if cfg.TimeInit != TimeStamp {
		m.slotEmb = nn.NewEmbedding(ps, rng, "Wt", m.slotVocab, cfg.Dt)
	}

	// Time Interval Encoder.
	if !cfg.NoTemporal && !cfg.NoTrajectory {
		if cfg.TimeInit == TimeStamp {
			m.tieStampMLP = nn.NewMLP2(ps, rng, "tie.stamp", 2, cfg.D1m, cfg.D2m)
		} else {
			m.tieConv1 = nn.NewConv2DLayer(ps, rng, "tie.conv1", 1, 4, 3, 1, 1, 0, 1, 1, true, true)
			m.tieConv2 = nn.NewConv2DLayer(ps, rng, "tie.conv2", 4, 8, 3, 1, 1, 0, 1, 1, true, true)
			m.tieConv3 = nn.NewConv2DLayer(ps, rng, "tie.conv3", 8, 1, 1, 1, 0, 0, 1, 1, false, false)
			m.tieMLP = nn.NewMLP2(ps, rng, "tie.mlp", cfg.Dt+2, cfg.D1m, cfg.D2m)
		}
	}

	// Trajectory Encoder.
	if !cfg.NoTrajectory {
		m.stepDim = 0
		if !cfg.NoTemporal {
			m.stepDim += cfg.D2m
		}
		if cfg.NoSpatial {
			m.stepDim += 2 // normalized segment-midpoint coordinates
		} else {
			m.stepDim += cfg.Ds
		}
		m.lstm = nn.NewLSTM(ps, rng, "traj.lstm", m.stepDim, cfg.Dh)
		m.trajMLP = nn.NewMLP2(ps, rng, "traj.mlp", cfg.Dh+2, cfg.D3m, cfg.D4m)
	}

	// External Features Encoder.
	if !cfg.NoExternal {
		m.extConv1 = nn.NewConv2DLayer(ps, rng, "ext.conv1", 1, 4, 3, 3, 1, 1, 2, 2, true, true)
		m.extConv2 = nn.NewConv2DLayer(ps, rng, "ext.conv2", 4, 8, 3, 3, 1, 1, 2, 2, true, true)
		m.extConv3 = nn.NewConv2DLayer(ps, rng, "ext.conv3", 8, 8, 3, 3, 1, 1, 2, 2, true, true)
		m.extProj = nn.NewLinear(ps, rng, "ext.proj", 8, cfg.Dtraf)
		m.extMLP = nn.NewMLP2(ps, rng, "ext.mlp", citysim.WeatherTypes+cfg.Dtraf, cfg.D5m, cfg.D6m)
	}

	// MLP1 input Z9 (Formula 19): spatial + temporal + ocode + floats.
	m.odDim = 0
	if cfg.NoSpatial {
		m.odDim += 4 // origin/dest normalized coordinates
	} else {
		m.odDim += 2 * cfg.Ds
	}
	if cfg.TimeInit == TimeStamp {
		m.odDim++ // raw departure timestamp
	} else {
		m.odDim += cfg.Dt + 1 // slot embedding + remainder
	}
	if !cfg.NoExternal {
		m.odDim += cfg.D6m
	}
	m.odDim += 2 // r[1], r[-1]
	m.odMLP = nn.NewMLP2(ps, rng, "mlp1", m.odDim, cfg.D7m, cfg.D8m())
	m.estMLP = nn.NewMLP2(ps, rng, "mlp2", cfg.D8m(), cfg.D9m, 1)

	return m, nil
}

// Config returns the model's configuration.
func (m *Model) Config() Config { return m.cfg }

// Graph returns the road network the model was built over.
func (m *Model) Graph() *roadnet.Graph { return m.g }

// Params exposes the parameter set (model size reporting, serialization).
func (m *Model) Params() *nn.ParamSet { return m.ps }

// Slotter returns the time discretizer.
func (m *Model) Slotter() *timeslot.Slotter { return m.slotter }

// SetTimeScale overrides the target normalization (set from training data
// by Train; exposed for model loading).
func (m *Model) SetTimeScale(s float64) {
	if s <= 0 {
		panic(fmt.Sprintf("core: time scale must be positive, got %v", s))
	}
	m.timeScale = s
}

// RefDist returns the training-time reference error distribution, or nil
// when the checkpoint predates it or training skipped evaluation.
func (m *Model) RefDist() *metrics.RefDist { return m.refDist }

// SetRefDist records the reference error distribution to be persisted by
// Save. An invalid distribution is rejected (kept nil) rather than poisoning
// the checkpoint.
func (m *Model) SetRefDist(d *metrics.RefDist) {
	if d != nil && d.Validate() != nil {
		d = nil
	}
	m.refDist = d
}

// SlotEmbeddingTable returns the raw Wt values (used by the Figure 14b
// t-SNE heatmap); nil under T-stamp.
func (m *Model) SlotEmbeddingTable() *nn.Embedding { return m.slotEmb }

// RoadEmbeddingTable returns the raw Ws values (road-segment embeddings);
// nil under the N-sp ablation.
func (m *Model) RoadEmbeddingTable() *nn.Embedding { return m.roadEmb }

// weekSlotIndex maps an absolute timestamp to the embedding row index.
func (m *Model) weekSlotIndex(sec float64) int {
	slot := m.slotter.Slot(sec)
	ws := m.slotter.WeekSlot(slot)
	if m.cfg.TimeInit == TimeDayGraph {
		return m.slotter.SlotOfDay(ws)
	}
	return ws
}

// normPoint scales a position to [0,1]² using the network bounds.
func (m *Model) normPoint(p geo.Point) (x, y float64) {
	w, h := m.bounds.Width(), m.bounds.Height()
	if w <= 0 || h <= 0 {
		return 0, 0
	}
	return (p.X - m.bounds.Min.X) / w, (p.Y - m.bounds.Min.Y) / h
}

// edgeMidNorm returns the normalized midpoint of an edge (the N-sp
// replacement for segment embeddings).
func (m *Model) edgeMidNorm(e roadnet.EdgeID) (x, y float64) {
	a, b := m.g.EdgePoints(e)
	return m.normPoint(geo.Lerp(a, b, 0.5))
}

// NumWeights returns the number of scalar parameters (Table 5's model
// size is NumWeights × 8 bytes).
func (m *Model) NumWeights() int { return m.ps.NumWeights() }
