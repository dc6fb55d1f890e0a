package models

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"deepod/internal/embed"
	"deepod/internal/nn"
	"deepod/internal/roadnet"
	"deepod/internal/timeslot"
	"deepod/internal/traj"
)

// MURAT is the multi-task representation-learning baseline (Li et al.,
// KDD 2018): road-segment embeddings for the matched origin/destination
// segments and a time-slot embedding feed a residual MLP trunk with two
// heads predicting travel time and travel distance jointly.
//
// Faithful to the paper's critique of MURAT, this implementation (a) embeds
// the road network as an *unweighted* graph (no trajectory co-occurrence
// weights), (b) uses a single-day undirected-style temporal graph (daily
// periodicity only), and (c) never sees trajectories — the three gaps
// DeepOD closes.
type MURAT struct {
	g *roadnet.Graph

	Ds, Dt      int
	Hidden      int
	ResBlocks   int
	SlotMinutes int
	BatchSize   int
	Epochs      int
	LREvery     int
	EvalEvery   int
	ValSample   int
	EmbedWalks  int
	Seed        int64

	ps       *nn.ParamSet
	roadEmb  *nn.Embedding
	slotEmb  *nn.Embedding
	inProj   *nn.Linear
	resA     []*nn.Linear
	resB     []*nn.Linear
	timeHead *nn.Linear
	distHead *nn.Linear

	slotter   *timeslot.Slotter
	feat      *Featurizer
	timeScale float64
	distScale float64
	stats     *DeepStats
	trainTime time.Duration
}

// NewMURAT builds an untrained MURAT baseline with paper-suggested
// proportions at small scale.
func NewMURAT(g *roadnet.Graph) *MURAT {
	return &MURAT{
		g: g, feat: NewFeaturizer(g),
		Ds: 16, Dt: 16, Hidden: 32, ResBlocks: 2, SlotMinutes: 15,
		BatchSize: 64, Epochs: 4, EmbedWalks: 4, Seed: 13,
	}
}

// Name implements Estimator.
func (m *MURAT) Name() string { return "MURAT" }

func (m *MURAT) build() error {
	slotter, err := timeslot.New(time.Duration(m.SlotMinutes) * time.Minute)
	if err != nil {
		return err
	}
	m.slotter = slotter
	rng := rand.New(rand.NewSource(m.Seed))
	m.ps = nn.NewParamSet()
	m.roadEmb = nn.NewEmbedding(m.ps, rng, "murat.Ws", m.g.NumEdges(), m.Ds)
	m.slotEmb = nn.NewEmbedding(m.ps, rng, "murat.Wt", slotter.SlotsPerDay, m.Dt)
	in := 2*m.Ds + m.Dt + 4 // embeddings + r1, r2, hourSin, hourCos
	m.inProj = nn.NewLinear(m.ps, rng, "murat.in", in, m.Hidden)
	m.resA = m.resA[:0]
	m.resB = m.resB[:0]
	for i := 0; i < m.ResBlocks; i++ {
		m.resA = append(m.resA, nn.NewLinear(m.ps, rng, fmt.Sprintf("murat.res%d.a", i), m.Hidden, m.Hidden))
		m.resB = append(m.resB, nn.NewLinear(m.ps, rng, fmt.Sprintf("murat.res%d.b", i), m.Hidden, m.Hidden))
	}
	m.timeHead = nn.NewLinear(m.ps, rng, "murat.time", m.Hidden, 1)
	m.distHead = nn.NewLinear(m.ps, rng, "murat.dist", m.Hidden, 1)
	return nil
}

// pretrain initializes both embeddings with DeepWalk over unweighted
// graphs (MURAT's recipe; contrast with DeepOD's trajectory-weighted,
// directed constructions).
func (m *MURAT) pretrain() error {
	rng := rand.New(rand.NewSource(m.Seed + 1))
	lg, err := roadnet.BuildLineGraph(m.g, nil, 1) // unweighted: base weight only
	if err != nil {
		return err
	}
	wcfg := embed.DefaultWalkConfig()
	wcfg.P, wcfg.Q = 1, 1 // DeepWalk
	wcfg.WalksPerNode = m.EmbedWalks
	walks, err := embed.GenerateWalks(embed.FromLineGraph(lg), wcfg, rng)
	if err != nil {
		return err
	}
	vecs, err := embed.TrainSkipGram(lg.NumNodes, walks, embed.DefaultSkipGramConfig(m.Ds), rng)
	if err != nil {
		return err
	}
	if err := m.roadEmb.Init(vecs); err != nil {
		return err
	}

	tg, err := embed.BuildDayTemporalGraph(m.slotter, 1)
	if err != nil {
		return err
	}
	walks, err = embed.GenerateWalks(tg, wcfg, rng)
	if err != nil {
		return err
	}
	tvecs, err := embed.TrainSkipGram(tg.Slots, walks, embed.DefaultSkipGramConfig(m.Dt), rng)
	if err != nil {
		return err
	}
	return m.slotEmb.Init(tvecs)
}

// forward returns (timeNode, distNode), each [1, 1], in normalized units.
func (m *MURAT) forward(tp *nn.Tape, od *traj.MatchedOD) (*nn.Node, *nn.Node) {
	fs := m.feat.Features(od)
	slot := m.slotter.SlotOfDay(m.slotter.WeekSlot(m.slotter.Slot(od.DepartSec)))
	x := tp.ConcatCols(
		m.roadEmb.LookupRows(tp, []int{int(od.OriginEdge)}),
		m.roadEmb.LookupRows(tp, []int{int(od.DestEdge)}),
		m.slotEmb.LookupRows(tp, []int{slot}),
		rowConst(tp, od.RStart, od.REnd, fs[6], fs[7]),
	)
	h := tp.ReLU(m.inProj.Forward(tp, x))
	for i := range m.resA {
		r := m.resB[i].Forward(tp, tp.ReLU(m.resA[i].Forward(tp, h)))
		h = tp.ReLU(tp.Add(h, r))
	}
	return m.timeHead.Forward(tp, h), m.distHead.Forward(tp, h)
}

// Train fits the multi-task objective MAE(time) + 0.5·MAE(distance).
func (m *MURAT) Train(train, valid []traj.TripRecord) error {
	if len(train) == 0 {
		return fmt.Errorf("models: MURAT needs training records")
	}
	start := time.Now()
	if err := m.build(); err != nil {
		return err
	}
	if err := m.pretrain(); err != nil {
		return err
	}
	m.timeScale = meanTravel(train)
	var meanDist float64
	for i := range train {
		meanDist += train[i].Trajectory.Length(m.g)
	}
	m.distScale = math.Max(1, meanDist/float64(len(train)))

	stats, err := deepTrain(m.ps, train, valid, deepTrainOpts{
		batchSize: m.BatchSize, epochs: m.Epochs,
		schedule: nn.StepDecaySchedule{Initial: 0.01, Factor: 0.2, Every: m.lrEvery()},
		clipNorm: 5, evalEvery: m.EvalEvery, valSample: m.ValSample, seed: m.Seed + 2,
	}, func(tp *nn.Tape, rec *traj.TripRecord) *nn.Node {
		t, d := m.forward(tp, &rec.Matched)
		timeTgt := rowConst(tp, rec.TravelSec/m.timeScale)
		distTgt := rowConst(tp, rec.Trajectory.Length(m.g)/m.distScale)
		return tp.Add(tp.RowAbsError(t, timeTgt), tp.Scale(tp.RowAbsError(d, distTgt), 0.5))
	}, m.Estimate)
	if err != nil {
		return err
	}
	m.stats = stats
	m.trainTime = time.Since(start)
	return nil
}

// Estimate implements Estimator.
func (m *MURAT) Estimate(od *traj.MatchedOD) float64 {
	if m.ps == nil {
		panic("models: MURAT used before Train")
	}
	tp := nn.NewEvalTape()
	t, _ := m.forward(tp, od)
	return math.Max(0, t.Value.Data[0]*m.timeScale)
}

// Stats returns the training curve (nil before Train).
func (m *MURAT) Stats() *DeepStats { return m.stats }

// SizeBytes implements Trainable.
func (m *MURAT) SizeBytes() int {
	if m.ps == nil {
		return 0
	}
	return m.ps.SizeBytes()
}

// TrainTime implements Trainable.
func (m *MURAT) TrainTime() time.Duration { return m.trainTime }

// lrEvery returns the LR-decay period in epochs (default 2).
func (m *MURAT) lrEvery() int { return lrEveryOr(m.LREvery) }
