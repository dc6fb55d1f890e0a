package models

import (
	"math"
	"math/rand"
	"time"

	"deepod/internal/core"
	"deepod/internal/nn"
	"deepod/internal/roadnet"
	"deepod/internal/traj"
)

// STNN is the Spatial Temporal deep Neural Network baseline (Jindal et al.):
// a first MLP predicts the travel distance from the raw origin/destination
// coordinates; a second MLP combines the predicted distance with the
// departure-time features to predict the travel time. It deliberately
// ignores the road network (the paper's explanation for STNN's weakness).
type STNN struct {
	feat *Featurizer

	Hidden    int
	BatchSize int
	Epochs    int
	LREvery   int
	EvalEvery int
	ValSample int
	Seed      int64

	ps        *nn.ParamSet
	distMLP   *nn.MLP2
	timeMLP   *nn.MLP2
	distScale float64
	timeScale float64
	stats     *core.TrainStats
	g         *roadnet.Graph
}

// NewSTNN builds an untrained STNN baseline.
func NewSTNN(g *roadnet.Graph) *STNN {
	return &STNN{
		feat: NewFeaturizer(g), g: g,
		Hidden: 32, BatchSize: 64, Epochs: 4, EvalEvery: 0, Seed: 7,
	}
}

// Name implements Estimator.
func (s *STNN) Name() string { return "STNN" }

// build constructs the two MLPs.
func (s *STNN) build() {
	rng := rand.New(rand.NewSource(s.Seed))
	s.ps = nn.NewParamSet()
	// distance head: [ox, oy, dx, dy] -> distance
	s.distMLP = nn.NewMLP2(s.ps, rng, "stnn.dist", 4, s.Hidden, 1)
	// time head: [predicted distance, hourSin, hourCos, day, weekend] -> time
	s.timeMLP = nn.NewMLP2(s.ps, rng, "stnn.time", 5, s.Hidden, 1)
}

// forwardRows runs both heads over ods as one graph and returns the
// [len(ods), 1] distance and time nodes, row r that of ods[r], in
// normalized units.
func (s *STNN) forwardRows(tp *nn.Tape, ods []*traj.MatchedOD) (dist, t *nn.Node) {
	where := tp.Alloc(len(ods), 4)
	when := tp.Alloc(len(ods), 4)
	for r, od := range ods {
		fs := s.feat.Features(od)
		copy(where.Data[4*r:4*r+4], fs[0:4])
		copy(when.Data[4*r:4*r+4], fs[6:10])
	}
	dist = s.distMLP.Forward(tp, tp.Const(where))
	t = s.timeMLP.Forward(tp, tp.ConcatCols(dist, tp.Const(when)))
	return dist, t
}

// shardLoss is the training graph of recs (core.ShardLoss).
func (s *STNN) shardLoss(tp *nn.Tape, recs []*traj.TripRecord) *nn.Node {
	dist, t := s.forwardRows(tp, matchedODs(recs))
	return multiTaskLoss(tp, s.g, recs, t, dist, s.timeScale, s.distScale)
}

// Train fits both heads jointly under core.Fit: loss = MAE(time) +
// 0.5·MAE(distance), the multi-objective of the original STNN. valid must
// not be empty.
func (s *STNN) Train(train, valid []traj.TripRecord) error {
	stats, err := core.Fit(train, valid, core.TrainOptions{EvalEvery: s.EvalEvery, ValSample: s.ValSample}, 1, s.Seed+1,
		s.BatchSize, s.Epochs, nn.StepDecaySchedule{Initial: 0.01, Factor: 0.2, Every: lrEveryOr(s.LREvery)}, 5,
		func() (*nn.ParamSet, error) {
			s.build()
			s.timeScale = meanTravel(train)
			s.distScale = meanLength(train, s.g)
			return s.ps, nil
		}, s.shardLoss, s.Estimate, nil)
	if err != nil {
		return err
	}
	s.stats = stats
	return nil
}

// Estimate implements Estimator.
func (s *STNN) Estimate(od *traj.MatchedOD) float64 {
	if s.ps == nil {
		panic("models: STNN used before Train")
	}
	tp := nn.GetEvalTape()
	_, t := s.forwardRows(tp, []*traj.MatchedOD{od})
	y := t.Value.Data[0]
	nn.PutEvalTape(tp)
	return math.Max(0, y*s.timeScale)
}

// Stats returns the training curve (nil before Train).
func (s *STNN) Stats() *core.TrainStats { return s.stats }

// SizeBytes implements Trainable.
func (s *STNN) SizeBytes() int {
	if s.ps == nil {
		return 0
	}
	return s.ps.SizeBytes()
}

// TrainTime implements Trainable: the Elapsed of Stats.
func (s *STNN) TrainTime() time.Duration {
	if s.stats == nil {
		return 0
	}
	return s.stats.Elapsed
}
