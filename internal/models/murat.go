package models

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"deepod/internal/core"
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
	stats     *core.TrainStats
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

// forwardRows runs the model over ods as one graph and returns the
// [len(ods), 1] time and distance nodes, row r that of ods[r], in
// normalized units. The origin and destination road embeddings are one
// lookup over the interleaved ids o₀, d₀, o₁, d₁, … viewed as [B, 2·Ds], so
// the backward adds into a shared edge row record by record, origin first.
func (m *MURAT) forwardRows(tp *nn.Tape, ods []*traj.MatchedOD) (t, dist *nn.Node) {
	ends := make([]int, 2*len(ods))
	slots := make([]int, len(ods))
	raw := tp.Alloc(len(ods), 4)
	for r, od := range ods {
		fs := m.feat.Features(od)
		ends[2*r], ends[2*r+1] = int(od.OriginEdge), int(od.DestEdge)
		slots[r] = m.slotter.SlotOfDay(m.slotter.WeekSlot(m.slotter.Slot(od.DepartSec)))
		row := raw.Data[4*r : 4*r+4]
		row[0], row[1], row[2], row[3] = od.RStart, od.REnd, fs[6], fs[7]
	}
	x := tp.ConcatCols(
		tp.Reshape(m.roadEmb.LookupRows(tp, ends), len(ods), 2*m.Ds),
		m.slotEmb.LookupRows(tp, slots),
		tp.Const(raw),
	)
	h := tp.ReLU(m.inProj.Forward(tp, x))
	for i := range m.resA {
		r := m.resB[i].Forward(tp, tp.ReLU(m.resA[i].Forward(tp, h)))
		h = tp.ReLU(tp.Add(h, r))
	}
	return m.timeHead.Forward(tp, h), m.distHead.Forward(tp, h)
}

// shardLoss is the training graph of recs (core.ShardLoss).
func (m *MURAT) shardLoss(tp *nn.Tape, recs []*traj.TripRecord) *nn.Node {
	t, dist := m.forwardRows(tp, matchedODs(recs))
	return multiTaskLoss(tp, m.g, recs, t, dist, m.timeScale, m.distScale)
}

// Train fits the multi-task objective MAE(time) + 0.5·MAE(distance) under
// core.Fit, whose clock includes the DeepWalk pre-training. valid must not
// be empty.
func (m *MURAT) Train(train, valid []traj.TripRecord) error {
	stats, err := core.Fit(train, valid, core.TrainOptions{EvalEvery: m.EvalEvery, ValSample: m.ValSample}, 1, m.Seed+2,
		m.BatchSize, m.Epochs, nn.StepDecaySchedule{Initial: 0.01, Factor: 0.2, Every: lrEveryOr(m.LREvery)}, 5,
		func() (*nn.ParamSet, error) {
			if err := m.build(); err != nil {
				return nil, err
			}
			if err := m.pretrain(); err != nil {
				return nil, err
			}
			m.timeScale = meanTravel(train)
			m.distScale = meanLength(train, m.g)
			return m.ps, nil
		}, m.shardLoss, m.Estimate, nil)
	if err != nil {
		return err
	}
	m.stats = stats
	return nil
}

// Estimate implements Estimator.
func (m *MURAT) Estimate(od *traj.MatchedOD) float64 {
	if m.ps == nil {
		panic("models: MURAT used before Train")
	}
	tp := nn.GetEvalTape()
	t, _ := m.forwardRows(tp, []*traj.MatchedOD{od})
	y := t.Value.Data[0]
	nn.PutEvalTape(tp)
	return math.Max(0, y*m.timeScale)
}

// Stats returns the training curve (nil before Train).
func (m *MURAT) Stats() *core.TrainStats { return m.stats }

// SizeBytes implements Trainable.
func (m *MURAT) SizeBytes() int {
	if m.ps == nil {
		return 0
	}
	return m.ps.SizeBytes()
}

// TrainTime implements Trainable: the Elapsed of Stats.
func (m *MURAT) TrainTime() time.Duration {
	if m.stats == nil {
		return 0
	}
	return m.stats.Elapsed
}
