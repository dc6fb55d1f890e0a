// Command ttetrain trains a travel-time estimator (DeepOD or a baseline)
// on a synthetic city and reports test errors; DeepOD models can be saved
// to disk and reloaded by tteserve.
//
// Usage:
//
//	ttetrain -city chengdu-s -orders 2000 -method DeepOD -save model.gob
//	ttetrain -city chengdu-s -method GBM
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"time"

	"deepod"
	"deepod/internal/core"
	"deepod/internal/obs"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ttetrain: ")
	var (
		city    = flag.String("city", "chengdu-s", "city preset")
		orders  = flag.Int("orders", 2000, "number of taxi orders")
		days    = flag.Int("days", 28, "simulated horizon in days")
		seed    = flag.Int64("seed", 1, "random seed")
		method  = flag.String("method", "DeepOD", "DeepOD, TEMP, LR, GBM, STNN or MURAT")
		epochs  = flag.Int("epochs", 0, "override training epochs (DeepOD)")
		aux     = flag.Float64("aux", -1, "override auxiliary-loss weight w (DeepOD)")
		workers = flag.Int("train-workers", runtime.GOMAXPROCS(0), "data-parallel training workers (DeepOD); 1 = serial")
		save    = flag.String("save", "", "save the trained DeepOD model to this path")
	)
	flag.Parse()

	c, err := deepod.BuildCity(*city, deepod.CityOptions{
		Orders: *orders, HorizonDays: *days, Seed: *seed,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dataset: train=%d valid=%d test=%d\n",
		len(c.Split.Train), len(c.Split.Valid), len(c.Split.Test))

	var est deepod.Estimator
	start := time.Now()
	if *method == "DeepOD" {
		cfg := deepod.SmallConfig()
		if *epochs > 0 {
			cfg.Epochs = *epochs
		}
		if *aux >= 0 {
			cfg.AuxWeight = *aux
		}
		cfg.TrainWorkers = *workers
		m, stats, err := deepod.TrainWithStats(cfg, c, &deepod.TrainOptions{
			Progress: func(epoch, step int, valMAE float64) {
				fmt.Printf("  epoch %d step %d: validation MAE %.1fs\n", epoch, step, valMAE)
			},
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("trained in %v (%d steps, converged at step %d)\n",
			stats.Elapsed.Round(time.Millisecond), stats.Steps, stats.ConvergedStep)
		printPhaseBreakdown()
		// Record the test-split error distribution into the model before
		// saving: it travels with the checkpoint as the drift reference for
		// the serving-time quality monitor.
		m.SetRefDist(deepod.ErrorRefDist(&modelEstimator{m}, c.Split.Test))
		if *save != "" {
			if err := saveModel(*save, m, stats); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("saved model to %s (%d weights)\n", *save, m.NumWeights())
		}
		est = &modelEstimator{m}
	} else {
		b, err := deepod.Baseline(*method, c.Graph)
		if err != nil {
			log.Fatal(err)
		}
		if err := b.Train(c.Split.Train, c.Split.Valid); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("trained in %v\n", time.Since(start).Round(time.Millisecond))
		est = b
	}

	mae, mape, mare := deepod.Evaluate(est, c.Split.Test)
	fmt.Printf("%s test errors: MAE=%.2fs MAPE=%.2f%% MARE=%.2f%%\n",
		*method, mae, mape*100, mare*100)
}

// printPhaseBreakdown reads the obs registry the training loop recorded
// into and prints where offline time went — the Table 5 offline-cost
// story, split by phase. The same numbers are scraped from tteserve's
// /metrics after a startup-train.
func printPhaseBreakdown() {
	type row struct {
		name  string
		sum   float64
		count uint64
	}
	var rows []row
	for _, s := range obs.Default().Snapshot() {
		switch s.Name {
		case "tte_train_phase_seconds":
			if s.Count > 0 {
				rows = append(rows, row{"train/" + s.Label("phase"), s.Sum, s.Count})
			}
		case obs.SpanFamily:
			span := s.Label("span")
			if s.Count > 0 && (span == "encode" || span == "estimate" || span == "mapmatch.point") {
				rows = append(rows, row{"online/" + span, s.Sum, s.Count})
			}
		}
	}
	if len(rows) == 0 {
		return
	}
	fmt.Println("offline cost breakdown:")
	for _, r := range rows {
		avg := time.Duration(r.sum / float64(r.count) * float64(time.Second))
		fmt.Printf("  %-22s total %9s  over %7d obs  avg %9s\n",
			r.name, time.Duration(r.sum*float64(time.Second)).Round(time.Millisecond),
			r.count, avg.Round(time.Microsecond))
	}
}

// saveModel writes m to path unless its training run ended collapsed: a
// model that answers about one number for every OD is not worth serving,
// so no checkpoint of it is written.
func saveModel(path string, m *core.Model, stats *core.TrainStats) error {
	if err := stats.CollapseError(); err != nil {
		return fmt.Errorf("refusing to save: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := m.Save(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// modelEstimator adapts *core.Model to the Estimator interface.
type modelEstimator struct{ m *core.Model }

func (e *modelEstimator) Name() string { return "DeepOD" }
func (e *modelEstimator) Estimate(od *deepod.MatchedOD) float64 {
	return e.m.Estimate(od)
}
