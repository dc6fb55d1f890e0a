package core

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"deepod/internal/dataset"
	"deepod/internal/embed"
	"deepod/internal/metrics"
	"deepod/internal/nn"
	"deepod/internal/roadnet"
	"deepod/internal/tensor"
	"deepod/internal/traj"
)

// StepPoint is one validation measurement during training (the series
// behind Figure 10 and the convergence numbers of Table 3).
type StepPoint struct {
	Step   int
	ValMAE float64 // seconds
	// At is the measured wall-clock time from the start of Train to this
	// measurement (embedding pre-training included).
	At time.Duration
}

// TrainStats reports what happened during a training run (Fit).
type TrainStats struct {
	// Curve is the validation-MAE trace sampled every EvalEvery steps.
	Curve []StepPoint
	// ConvergedStep is the first step whose validation MAE came within 2%
	// of the best MAE seen; ConvergedAt is the measured wall-clock time of
	// that step's StepPoint.
	ConvergedStep int
	ConvergedAt   time.Duration
	// Steps and Elapsed cover the whole run; SamplesSeen counts the records
	// trained on across all optimizer steps.
	Steps       int
	SamplesSeen int
	Elapsed     time.Duration
	// EmbedElapsed is the time before the first optimizer step: the
	// model's set-up and embedding pre-training (node2vec for DeepOD,
	// DeepWalk for MURAT), part of offline training in Table 5.
	EmbedElapsed time.Duration
	// FinalValMAE is the last validation MAE in seconds.
	FinalValMAE float64
	// PredSpreadRatio is, at the last validation measurement, the standard
	// deviation of the predictions over that of the targets: near 1 for a
	// model that tells ODs apart, near 0 for one that answers the same
	// number for every OD (see Collapsed). When the targets have no
	// spread it is NaN or +Inf, and the run does not count as collapsed.
	PredSpreadRatio float64
	// Workers is the number of data-parallel training workers used.
	Workers int
}

// CollapseFloor is the PredSpreadRatio below which a trained model counts
// as collapsed: its validation predictions vary by less than 5 % of the
// targets' spread, so it answers about one number for every OD.
const CollapseFloor = 0.05

// Collapsed reports whether the run ended in a collapsed model
// (PredSpreadRatio below CollapseFloor).
func (s *TrainStats) Collapsed() bool { return s.PredSpreadRatio < CollapseFloor }

// TrainOptions tunes the training loop around the model.
type TrainOptions struct {
	// EvalEvery measures validation MAE every this many optimizer steps
	// (0 = only at epoch boundaries).
	EvalEvery int
	// MaxSteps stops early after this many optimizer steps (0 = no cap);
	// used by the hyper-parameter sweeps to bound cost.
	MaxSteps int
	// ValSample caps how many validation records each measurement uses
	// (0 = all).
	ValSample int
	// Progress, when non-nil, is called after every validation measurement
	// with the epoch, the optimizer step count and the validation MAE in
	// seconds.
	Progress func(epoch, step int, valMAE float64)
}

// ShardLoss builds one loss graph on tp over a worker's shard of a
// mini-batch, summed over its records; row r of every activation belongs to
// recs[r].
type ShardLoss func(tp *nn.Tape, recs []*traj.TripRecord) *nn.Node

// Train runs Algorithm 1's offline training: embedding pre-training
// (lines 1–5) followed by epochs of mini-batch optimization of
// loss = w·auxiliaryloss + (1−w)·mainloss (lines 6–7), both under Fit.
//
// Each mini-batch is one loss graph per worker shard (the whole batch with
// one worker), every activation a [rows, d] matrix. With
// Config.TrainWorkers > 1 the shards run on a persistent worker pool and the
// per-worker gradient buffers are reduced in fixed worker-index order, so
// results are bit-reproducible for a given seed and worker count, and one
// worker is the serial path exactly.
func (m *Model) Train(train, valid []traj.TripRecord, opts TrainOptions) (*TrainStats, error) {
	useAux := !m.cfg.NoTrajectory && m.cfg.AuxWeight > 0
	stats, err := Fit(train, valid, opts, m.cfg.TrainWorkers, m.cfg.Seed+1000,
		m.cfg.BatchSize, m.cfg.Epochs,
		nn.StepDecaySchedule{Initial: m.cfg.LRInitial, Factor: m.cfg.LRFactor, Every: m.cfg.LREvery}, m.cfg.ClipNorm,
		func() (*nn.ParamSet, error) {
			// Target normalization: mean training travel time.
			var mean float64
			for i := range train {
				mean += train[i].TravelSec
			}
			m.timeScale = mean / float64(len(train))
			// Lines 1–4: initialize embedding matrices with node2vec.
			return m.ps, m.pretrainEmbeddings(train)
		},
		func(tp *nn.Tape, recs []*traj.TripRecord) *nn.Node {
			return m.shardLoss(tp, recs, useAux, m.cfg.AuxWeight)
		},
		m.Estimate,
		m.traf.invalidate, // the validation estimates must see this step's weights
	)
	if err != nil {
		return nil, err
	}
	embedPhaseHist.Observe(stats.EmbedElapsed.Seconds())
	return stats, nil
}

// Fit is the one optimizer loop every deep model trains under: DeepOD's
// Train, ST-NN's and MURAT's. Both splits must be non-empty. The clock
// starts at entry; prepare sets the model up (pre-training included) and
// returns its parameters, and the time it took is EmbedElapsed. Then each
// of epochs shuffles train by seed into batches of batchSize, and each
// batch is one optimizer step (trainStep): the summed shard losses'
// gradient from workers workers, averaged, clipped to norm clip (0 =
// never) and applied by Adam at schedule's rate for the epoch. afterStep,
// when non-nil, runs after every step. estimate measures the validation MAE
// every opts.EvalEvery steps and at each epoch's end, on the same workers;
// each StepPoint's At, and so ConvergedAt, is read off the one clock.
func Fit(train, valid []traj.TripRecord, opts TrainOptions, workers int, seed int64,
	batchSize, epochs int, schedule nn.StepDecaySchedule, clip float64,
	prepare func() (*nn.ParamSet, error), loss ShardLoss,
	estimate func(od *traj.MatchedOD) float64, afterStep func()) (*TrainStats, error) {
	if len(train) == 0 {
		return nil, fmt.Errorf("core: no training records")
	}
	if len(valid) == 0 {
		return nil, fmt.Errorf("core: no validation records")
	}
	if workers < 1 {
		workers = 1
	}
	stats := &TrainStats{Workers: workers}
	start := time.Now()
	ps, err := prepare()
	if err != nil {
		return nil, err
	}
	stats.EmbedElapsed = time.Since(start)

	// evaluate returns the validation MAE and the predictions' spread ratio.
	evaluate := func() (mae, spread float64) {
		evalStart := time.Now()
		n := len(valid)
		if opts.ValSample > 0 && opts.ValSample < n {
			n = opts.ValSample
		}
		actual := make([]float64, n)
		pred := make([]float64, n)
		shardLoop(n, workers, func(i int) {
			actual[i] = valid[i].TravelSec
			pred[i] = estimate(&valid[i].Matched)
		})
		evalPhaseHist.Observe(time.Since(evalStart).Seconds())
		_, varPred := metrics.Moments(pred)
		_, varActual := metrics.Moments(actual)
		return metrics.MAE(actual, pred), math.Sqrt(varPred / varActual)
	}
	record := func(epoch, step int) {
		mae, spread := evaluate()
		stats.PredSpreadRatio = spread // the last record's stands
		stats.Curve = append(stats.Curve, StepPoint{Step: step, ValMAE: mae, At: time.Since(start)})
		if opts.Progress != nil {
			opts.Progress(epoch, step, mae)
		}
	}

	opt := nn.NewAdam(schedule.Initial)
	rng := rand.New(rand.NewSource(seed))
	pool := newTrainPool(ps, workers)
	defer pool.close()

	step := 0
	done := false
	for epoch := 0; epoch < epochs && !done; epoch++ {
		opt.LR = schedule.At(epoch)
		trainEpochGauge.Set(float64(epoch))
		err := dataset.Batches(len(train), batchSize, rng, true, func(batch []int) error {
			if done {
				return nil
			}
			fwd, bwd := trainStep(pool, opt, clip, train, batch, loss)
			// One observation per optimizer step: the batch's total forward
			// (graph build + loss) and backward (gradient) time, summed over
			// workers.
			forwardPhaseHist.Observe(fwd.Seconds())
			backwardPhaseHist.Observe(bwd.Seconds())
			trainSamplesTotal.Add(uint64(len(batch)))
			stats.SamplesSeen += len(batch)
			if afterStep != nil {
				afterStep()
			}
			step++
			if opts.EvalEvery > 0 && step%opts.EvalEvery == 0 {
				record(epoch, step)
			}
			if opts.MaxSteps > 0 && step >= opts.MaxSteps {
				done = true
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		record(epoch, step)
	}

	stats.Steps = step
	stats.Elapsed = time.Since(start)
	if len(stats.Curve) > 0 {
		stats.FinalValMAE = stats.Curve[len(stats.Curve)-1].ValMAE
		best := math.Inf(1)
		for _, p := range stats.Curve {
			if p.ValMAE < best {
				best = p.ValMAE
			}
		}
		for _, p := range stats.Curve {
			if p.ValMAE <= best*1.02 {
				stats.ConvergedStep = p.Step
				stats.ConvergedAt = p.At
				break
			}
		}
	}
	return stats, nil
}

// trainStep is one optimizer step (Algorithm 1, lines 8–13) over the
// records train[batch]: the batch gradient of loss from the pool, averaged
// over the batch, clipped to norm clip (0 = never), and applied by opt. It returns the forward and backward time
// summed over the workers.
func trainStep(pool *trainPool, opt *nn.Adam, clip float64, train []traj.TripRecord, batch []int, loss ShardLoss) (fwd, bwd time.Duration) {
	pool.ps.ZeroGrad()
	fwd, bwd = batchGradient(pool, train, batch, loss)
	pool.ps.ScaleGrads(1 / float64(len(batch)))
	if clip > 0 {
		nn.ClipGradNorm(pool.ps, clip)
	}
	opt.Step(pool.ps)
	return fwd, bwd
}

// batchGradient adds the gradient of the summed loss over train[batch] to
// the parameter gradients. Worker k takes the records at batch positions
// k, k+n, k+2n, … as its shard, builds one loss graph over the whole shard
// on its tape and runs it backward into its private buffer; the pool then
// reduces the buffers in worker order.
func batchGradient(pool *trainPool, train []traj.TripRecord, batch []int, loss ShardLoss) (fwd, bwd time.Duration) {
	var mu sync.Mutex
	pool.run(func(wk int, tp *nn.Tape) {
		if wk >= len(batch) {
			return
		}
		shard := make([]*traj.TripRecord, 0, (len(batch)+pool.n-1)/pool.n)
		for i := wk; i < len(batch); i += pool.n {
			shard = append(shard, &train[batch[i]])
		}
		start := time.Now()
		tp.Reset()
		root := loss(tp, shard)
		back := time.Now()
		tp.Backward(root)
		mu.Lock()
		fwd += back.Sub(start)
		bwd += time.Since(back)
		mu.Unlock()
	})
	pool.reduce()
	return fwd, bwd
}

// shardForward builds the training forward of recs on tp as one graph:
// code = M_O over the ODs ([B, D8m]), ŷ = M_E(code) ([B, 1]) and, when
// withTrajectory is set, stcode = M_T over the trajectories ([B, D4m]).
// Row r of each belongs to recs[r].
func (m *Model) shardForward(tp *nn.Tape, recs []*traj.TripRecord, withTrajectory bool) (code, stcode, yhat *nn.Node) {
	ods := make([]*traj.MatchedOD, len(recs))
	for r, rec := range recs {
		ods[r] = &rec.Matched
	}
	code = m.encodeODs(tp, ods)
	yhat = m.estMLP.Forward(tp, code) // Formula 20
	if withTrajectory {
		ts := make([]*traj.Trajectory, len(recs))
		for r, rec := range recs {
			ts[r] = &rec.Trajectory
		}
		stcode = m.encodeTrajectories(tp, ts)
	}
	return code, stcode, yhat
}

// shardLoss builds the loss of recs on tp, summed over the records: per
// record the main |ŷ−y| term plus, when useAux is set, the auxiliary
// trajectory-binding terms of Algorithm 1 lines 10–12 weighted by w.
func (m *Model) shardLoss(tp *nn.Tape, recs []*traj.TripRecord, useAux bool, w float64) *nn.Node {
	code, stcode, yhat := m.shardForward(tp, recs, useAux)
	target := constRows(tp, len(recs), 1, func(r int, row []float64) { row[0] = recs[r].TravelSec / m.timeScale })
	main := tp.RowAbsError(yhat, target)
	if !useAux {
		return tp.Sum(main)
	}
	// Anchor M_T: the estimator must decode the travel time
	// from stcode too. The spatio-temporal path contains its
	// own timing, so this trains the trajectory encoder to
	// organize its representation by travel time; binding
	// code to stcode then distills that structure into the
	// OD encoder (see DESIGN.md §4 on this deviation).
	privileged := tp.RowAbsError(m.estMLP.Forward(tp, stcode), target)
	bindTarget := stcode
	if m.cfg.AuxOneWay {
		// Detach: the OD code chases the trajectory code,
		// never the reverse.
		bindTarget = tp.Const(stcode.Value)
	}
	aux := tp.Add(tp.RowL2Distance(code, bindTarget), privileged)
	// Algorithm 1, line 12: loss = w·auxiliaryloss + (1−w)·mainloss.
	return tp.Sum(tp.Add(tp.Scale(aux, w), tp.Scale(main, 1-w)))
}

// pretrainEmbeddings performs Algorithm 1 lines 1–4: node2vec over the
// trajectory-weighted road line graph initializes Ws, node2vec over the
// temporal graph initializes Wt. Variant configs swap or skip the
// pre-training per Table 7.
func (m *Model) pretrainEmbeddings(train []traj.TripRecord) error {
	rng := rand.New(rand.NewSource(m.cfg.Seed + 2000))

	if m.roadEmb != nil && m.cfg.RoadInit == RoadGraph {
		trajEdges := make([][]roadnet.EdgeID, len(train))
		for i := range train {
			trajEdges[i] = train[i].Trajectory.Edges()
		}
		lg, err := roadnet.BuildLineGraph(m.g, trajEdges, 0.25)
		if err != nil {
			return fmt.Errorf("core: building line graph: %w", err)
		}
		vecs, err := m.runEmbed(embed.FromLineGraph(lg), m.cfg.Ds, rng)
		if err != nil {
			return fmt.Errorf("core: road embedding: %w", err)
		}
		if err := m.roadEmb.Init(vecs); err != nil {
			return err
		}
	}

	if m.slotEmb != nil {
		var tg *embed.TemporalGraph
		var err error
		switch m.cfg.TimeInit {
		case TimeWeekGraph:
			tg, err = embed.BuildTemporalGraph(m.slotter, 1, 1)
		case TimeDayGraph:
			tg, err = embed.BuildDayTemporalGraph(m.slotter, 1)
		case TimeOneHot:
			return nil // keep random init
		}
		if err != nil {
			return fmt.Errorf("core: temporal graph: %w", err)
		}
		vecs, err := m.runEmbed(tg, m.cfg.Dt, rng)
		if err != nil {
			return fmt.Errorf("core: slot embedding: %w", err)
		}
		if err := m.slotEmb.Init(vecs); err != nil {
			return err
		}
	}
	return nil
}

// runEmbed pre-trains dim-wide vectors for g with the configured method,
// corpus size and epochs, timing the walks and the skip-gram separately.
func (m *Model) runEmbed(g embed.Graph, dim int, rng *rand.Rand) (*tensor.Tensor, error) {
	wcfg, scfg, err := embed.Configs(embed.Method(m.cfg.EmbedMethod), dim, m.cfg.EmbedWalks, m.cfg.EmbedEpochs)
	if err != nil {
		return nil, err
	}
	walkStart := time.Now()
	walks, err := embed.GenerateWalksParallel(g, wcfg, rng, m.cfg.TrainWorkers)
	if err != nil {
		return nil, err
	}
	sgStart := time.Now()
	embedWalksHist.Observe(sgStart.Sub(walkStart).Seconds())
	vecs, err := embed.TrainSkipGramParallel(g.NumNodes(), walks, scfg, rng, m.cfg.TrainWorkers)
	embedSkipGramHist.Observe(time.Since(sgStart).Seconds())
	return vecs, err
}
