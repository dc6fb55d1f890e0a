package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"deepod"
	"deepod/internal/core"
)

// trainStepsPerSecond turns -seconds into a step cap per training run: at
// the benchmark's 18 s it is 216 of the 522 steps of the six-epoch schedule,
// two epochs and a half, which is what two runs and the set-ups leave room
// for in the time a run may take; a 1 s smoke stops after 12.
const trainStepsPerSecond = 12

// valSample is how many validation records each measurement uses.
const valSample = 64

// epochMark is when an epoch's closing validation pass ended, and the
// optimizer steps taken by then.
type epochMark struct {
	at   time.Time
	step int
}

// trainOutcome is one Model.Train run as the workload reports it.
type trainOutcome struct {
	model *core.Model
	stats *core.TrainStats
	// embed and optim are what the probe saw over the embedding pre-training
	// and over the optimizer steps (with their validation passes).
	embed, optim avail
	// epochMs is, per epoch, its wall time per full mini-batch.
	epochMs []float64
}

// rate is samples per second of the program's own time over the whole
// Train call, pre-training included.
func (o *trainOutcome) rate() float64 {
	return float64(o.stats.SamplesSeen) / (o.embed.own() + o.optim.own()).Seconds()
}

// stepMs is the program's own time per full mini-batch over the optimizer
// steps: time over samples, times the batch size, because an epoch ends on
// a short batch.
func (o *trainOutcome) stepMs() float64 {
	return o.optim.own().Seconds() * 1e3 / float64(o.stats.SamplesSeen) * float64(o.model.Config().BatchSize)
}

// wallRate is SamplesSeen / Elapsed by the wall clock.
func (o *trainOutcome) wallRate() float64 {
	return float64(o.stats.SamplesSeen) / o.stats.Elapsed.Seconds()
}

// trainConfig is SmallConfig with the run's seed (parameter init and batch
// shuffling; the city is fixed) and worker count.
func trainConfig(seed int64, workers int) deepod.Config {
	cfg := deepod.SmallConfig()
	cfg.Seed = seed
	cfg.TrainWorkers = workers
	return cfg
}

// trainOnce trains a fresh model on the city with Train's default options
// (validation at epoch ends only). The one boundary inside Train the harness
// owns is its Progress callback: with a tracer every epoch becomes a
// core.train_epoch span whose req is the worker count and whose n is the
// steps it took.
func trainOnce(c *deepod.City, cfg deepod.Config, maxSteps int, pr *probe, tr *tracer) (*trainOutcome, error) {
	m, err := core.New(cfg, c.Graph)
	if err != nil {
		return nil, err
	}
	var marks []epochMark
	started := time.Now()
	stats, err := m.Train(c.Split.Train, c.Split.Valid, core.TrainOptions{
		MaxSteps: maxSteps, ValSample: valSample,
		Progress: func(_, step int, _ float64) { marks = append(marks, epochMark{time.Now(), step}) },
	})
	if err != nil {
		return nil, err
	}
	if len(marks) == 0 {
		return nil, fmt.Errorf("train: no epoch ended in %d steps", stats.Steps)
	}
	embedEnd := started.Add(stats.EmbedElapsed)
	out := &trainOutcome{model: m, stats: stats,
		embed: pr.over(interval{started, embedEnd}),
		optim: pr.over(interval{embedEnd, started.Add(stats.Elapsed)}),
	}
	prev := epochMark{at: embedEnd}
	for _, mk := range marks {
		if mk.step == prev.step {
			continue // the step cap ended the run on an epoch boundary
		}
		d := mk.at.Sub(prev.at)
		out.epochMs = append(out.epochMs, float64(d)/float64(time.Millisecond)/float64(mk.step-prev.step))
		if tr != nil {
			tr.record(spanTrainEpoch, uint32(cfg.TrainWorkers), mk.step-prev.step, prev.at, d)
		}
		prev = mk
	}
	return out, nil
}

// runTrain is the `train` workload: the offline side of Algorithm 1 that
// serving never runs — embedding pre-training, the trajectory LSTM, the
// auxiliary loss and Adam. First operation: one worker. Second: a fresh
// model with two workers on the same one P, which is what sharding a batch
// and reducing the gradients cost, not what a second core buys; that is
// core.speedup_2w, which the traced run measures with every CPU. The
// set-ups are BuildCity and core.New, as checkpoint load is for serving.
func runTrain(seed int64, seconds float64, traced bool, res *result) (err error) {
	var pr *probe
	n := 1
	if !traced {
		if pr, err = startProbe(); err != nil {
			return err
		}
		defer func() {
			if perr := pr.finish(); err == nil {
				err = perr
			}
		}()
		n = setUpsPerRun
	}
	u := &setUps{probe: pr, log: res.logf, build: func() (*stack, error) {
		s := &stack{stages: stageTimes{}}
		if err := s.buildCity(trainOrders, false); err != nil {
			return nil, err
		}
		return s, s.time("core.load_checkpoint_s", func() error {
			_, err := core.New(deepod.SmallConfig(), s.city.Graph)
			return err
		})
	}}
	st, err := u.run(n)
	if err != nil {
		return err
	}
	c := st.city
	maxSteps := int(trainStepsPerSecond * seconds)
	var tr *tracer
	if traced {
		tr = newTracer(4 * (deepod.SmallConfig().Epochs + 1)) // one span per epoch
	}
	one, err := trainOnce(c, trainConfig(seed, 1), maxSteps, pr, tr)
	if err != nil {
		return err
	}
	if traced {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(runtime.NumCPU()))
	}
	two, err := trainOnce(c, trainConfig(seed, 2), maxSteps, pr, tr)
	if err != nil {
		return err
	}

	// Correctness. The run learned something: its validation MAE is finite
	// and below predicting the mean travel time for everyone.
	var mean, baseline float64
	for i := range c.Split.Train {
		mean += c.Split.Train[i].TravelSec
	}
	mean /= float64(len(c.Split.Train))
	valid := c.Split.Valid
	if len(valid) > valSample {
		valid = valid[:valSample] // the records Train's measurement uses
	}
	for i := range valid {
		baseline += math.Abs(valid[i].TravelSec - mean)
	}
	baseline /= float64(len(valid))
	mae := one.stats.FinalValMAE
	if math.IsNaN(mae) || math.IsInf(mae, 0) {
		res.fail("final validation MAE is %v", mae)
	} else if maxSteps >= 200 && mae >= baseline {
		// Shorter capped runs (the smoke) have not had time to learn.
		res.fail("final validation MAE %.1f s is not below the mean-travel-time baseline %.1f s", mae, baseline)
	}
	// And training is bit-reproducible for a seed and worker count: a third
	// model, two workers again, pre-trained and trained as the second was but
	// stopped after its first epoch, must stand exactly where the second
	// stood then. (The later epochs execute the same code on the same pool.)
	if traced {
		firstEpoch := two.stats.Curve[0]
		again, err := trainOnce(c, trainConfig(seed, 2), firstEpoch.Step, nil, nil)
		if err != nil {
			return err
		}
		if got := again.stats.FinalValMAE; math.Float64bits(got) != math.Float64bits(firstEpoch.ValMAE) {
			res.fail("two runs of seed %d disagree after %d steps: validation MAE %v vs %v", seed, firstEpoch.Step, firstEpoch.ValMAE, got)
		}
	}
	res.attempted = one.stats.Steps + two.stats.Steps

	m := res.metrics
	if !traced {
		m["setup_s"] = u.seconds()
		m["rate_per_s"] = one.rate()
		m["latency_ms"] = one.stepMs()
		m["second_rate_per_s"] = two.rate()
		m["second_latency_ms"] = two.stepMs()
		// What a training process holds when Train returns: the city with
		// its trajectories and the trained weights.
		m["heap_live_mb"] = heapLiveMB()
		runtime.KeepAlive(st)
		runtime.KeepAlive(one)
		runtime.KeepAlive(two)
	} else {
		for k, v := range u.stages {
			m[k] = v
		}
		optim := one.stats.Elapsed - one.stats.EmbedElapsed
		m["core.embed_s"] = one.stats.EmbedElapsed.Seconds()
		m["core.optim_s"] = optim.Seconds()
		m["core.step_ms"] = optim.Seconds() * 1e3 / float64(one.stats.Steps)
		m["core.samples_seen"] = float64(one.stats.SamplesSeen)
		m["core.final_val_mae"] = mae
		m["core.speedup_2w"] = two.wallRate() / one.wallRate()
		slowest := func(vs []float64) float64 {
			s := append([]float64(nil), vs...)
			sort.Float64s(s)
			return s[len(s)-1]
		}
		// With a handful of epochs the slowest one stands in for the p99.
		m["harness.first_p99_ms"] = slowest(one.epochMs)
		m["harness.second_p99_ms"] = slowest(two.epochMs)
		if q1, q3 := quartiles(one.epochMs); len(one.epochMs) > 1 {
			m["harness.slice_iqr_pct"] = 100 * (q3 - q1) / median(one.epochMs)
		}
		if _, err := tr.write(outDir, "train", seed); err != nil {
			return err
		}
	}
	res.logf("train seed %d: 1 worker %d steps in %.2f s by the wall clock (embed %.2f s), %.0f samples/s and %.2f ms a step of its own time (given %.3f of an undisturbed core); 2 workers %.2f s, %.0f samples/s, %.2f ms (x%.2f by the wall clock); val MAE %.2f s (baseline %.2f s); set-up %.3f s (median of %d)",
		seed, one.stats.Steps, one.stats.Elapsed.Seconds(), one.stats.EmbedElapsed.Seconds(), one.rate(), one.stepMs(), one.optim.share,
		two.stats.Elapsed.Seconds(), two.rate(), two.stepMs(), two.wallRate()/one.wallRate(), mae, baseline, u.seconds(), len(u.times))
	return nil
}
