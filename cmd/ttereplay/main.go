// Command ttereplay re-executes flight-recorder segments offline: it loads
// a checkpoint, rebuilds the recording's city deterministically, replays
// every captured request through a real inference engine with fixed
// workers and a pinned traffic epoch, and diffs the answers against what
// was served.
//
// Two modes of use:
//
//	# Determinism audit: same checkpoint the recording served.
//	# Every estimate must reproduce bit-for-bit; any unexplained diff is
//	# a nondeterminism bug.
//	ttereplay -city chengdu-s -model model.gob -segments /var/tte/recorder \
//	    -gate-unexplained 0
//
//	# Regression diff: a candidate checkpoint against recorded traffic.
//	# The report quantifies how the answers moved (MAE vs recorded,
//	# per-generation and per-origin-cell tables, answers changed beyond
//	# -tolerance-sec).
//	ttereplay -city chengdu-s -model candidate.gob -segments /var/tte/recorder
//
// The report is written to -out (default BENCH_replay.json) with a
// throughput figure (replayed events/s). -gate-unexplained N exits
// non-zero when unexplained diffs exceed N.
//
// -smoke runs the whole loop self-contained for CI: build a synthetic
// city, train a small model, save + reload it as a checkpoint (so the
// recorded snapshot ID is the checkpoint SHA), record a serve session
// through an engine with the recorder at sample rate 1, then replay the
// segments against the identical checkpoint and require zero unexplained
// and zero explained diffs: with the same checkpoint and no live traffic
// there is nothing to explain.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"sync"

	"deepod"
	"deepod/internal/benchmeta"
	"deepod/internal/infer"
	"deepod/internal/obs"
	"deepod/internal/recorder"
	"deepod/internal/replay"
	"deepod/internal/traj"
)

func main() {
	var (
		city      = flag.String("city", "chengdu-s", "city preset the recording served (replay rebuilds its graph and prior)")
		orders    = flag.Int("orders", 1200, "synthetic orders for the city build (must match the recording's)")
		seed      = flag.Int64("seed", 1, "random seed (must match the recording's)")
		modelPath = flag.String("model", "", "checkpoint to replay against (required unless -smoke)")
		segDir    = flag.String("segments", "", "flight-recorder segment directory to replay (required unless -smoke)")
		tolerance = flag.Float64("tolerance-sec", 1, "report answers that moved more than this many seconds as changed")
		out       = flag.String("out", "BENCH_replay.json", "JSON report path")

		gateUnexplained = flag.Int("gate-unexplained", -1, "fail when unexplained diffs exceed this (-1 disables; 0 = require bit-for-bit)")

		smoke         = flag.Bool("smoke", false, "self-contained record+replay loop: train, record a session, replay it against the same checkpoint")
		smokeOrders   = flag.Int("smoke-orders", 200, "orders for the -smoke city build")
		smokeRequests = flag.Int("smoke-requests", 48, "estimate requests recorded in -smoke")
		smokeDir      = flag.String("smoke-dir", "", "working dir for -smoke checkpoint + segments (empty = temp dir)")
		trainWork     = flag.Int("train-workers", runtime.GOMAXPROCS(0), "data-parallel workers for the -smoke training run")
	)
	flag.Parse()

	if *smoke {
		*orders = *smokeOrders
	} else if *modelPath == "" || *segDir == "" {
		log.Fatal("ttereplay: -model and -segments are required (or use -smoke)")
	}

	c, err := deepod.BuildCity(*city, deepod.CityOptions{Orders: *orders, Seed: *seed})
	if err != nil {
		log.Fatalf("building city: %v", err)
	}
	matcher, err := deepod.NewMatcher(c.Graph)
	if err != nil {
		log.Fatalf("building matcher: %v", err)
	}
	match := func(ctx context.Context, od traj.ODInput) (traj.MatchedOD, error) {
		return deepod.MatchODCtx(ctx, matcher, od)
	}

	if *smoke {
		dir := *smokeDir
		if dir == "" {
			dir, err = os.MkdirTemp("", "ttereplay-smoke-*")
			if err != nil {
				log.Fatal(err)
			}
			defer os.RemoveAll(dir)
		} else if err := os.MkdirAll(dir, 0o755); err != nil {
			log.Fatal(err)
		}
		ckpt := filepath.Join(dir, "model.gob")
		*segDir = filepath.Join(dir, "segments")
		*modelPath = ckpt

		log.Printf("smoke: training on %d orders (%d workers)", *smokeOrders, *trainWork)
		cfg := deepod.SmallConfig()
		cfg.TrainWorkers = *trainWork
		m, err := deepod.Train(cfg, c, nil)
		if err != nil {
			log.Fatalf("smoke: training: %v", err)
		}
		f, err := os.Create(ckpt)
		if err != nil {
			log.Fatal(err)
		}
		if err := m.Save(f); err != nil {
			f.Close()
			log.Fatalf("smoke: saving checkpoint: %v", err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		// Load the checkpoint back the way tteserve does, so the recorded
		// snapshot ID is the checkpoint SHA the replay will also load.
		snap, err := infer.LoadCheckpoint(ckpt, c.Graph)
		if err != nil {
			log.Fatalf("smoke: reloading checkpoint: %v", err)
		}
		if err := smokeRecord(c, snap, match, *segDir, *smokeRequests); err != nil {
			log.Fatalf("smoke: recording: %v", err)
		}
		log.Printf("smoke: recorded session in %s, replaying against %s", *segDir, snap.ID)
		if *gateUnexplained < 0 {
			*gateUnexplained = 0
		}
	}

	snap, err := infer.LoadCheckpoint(*modelPath, c.Graph)
	if err != nil {
		log.Fatalf("loading checkpoint: %v", err)
	}
	headers, events, err := recorder.ReadDir(*segDir)
	if err != nil {
		log.Fatalf("reading segments: %v", err)
	}
	log.Printf("replaying %d events from %d segments against %s", len(events), len(headers), snap.ID)

	rep, err := replay.Run(context.Background(), replay.Config{
		Snapshot:     snap,
		Match:        match,
		External:     c.Grid.External,
		ToleranceSec: *tolerance,
	}, events)
	if err != nil {
		log.Fatalf("replay: %v", err)
	}

	env := benchmeta.Capture()
	report := map[string]any{
		"bench":         "replay",
		"city":          *city,
		"model":         *modelPath,
		"segments":      *segDir,
		"cpus":          env.CPUs,
		"gomaxprocs":    env.GOMAXPROCS,
		"go_version":    env.GoVersion,
		"gate_enforced": *gateUnexplained >= 0,
		"replay":        rep,
	}
	if len(headers) > 0 {
		report["segment_meta"] = headers[0].Meta
	}
	b, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(*out, append(b, '\n'), 0o644); err != nil {
		log.Fatalf("writing report: %v", err)
	}
	log.Printf("replayed %d/%d events: %d matched bit-for-bit, %d explained, %d UNEXPLAINED, %d/%d errors reproduced, MAE %.3fs, %.0f events/s → %s",
		rep.Replayed, rep.Events, rep.Matched, rep.ExplainedDiffs, rep.UnexplainedDiffs,
		rep.ErrorsReproduced, rep.ErrorsReproduced+rep.ErrorsChanged,
		rep.Overall.MAESec, rep.EventsPerSec, *out)

	failed := false
	if *gateUnexplained >= 0 && rep.UnexplainedDiffs > *gateUnexplained {
		log.Printf("GATE FAILED: %d unexplained diffs > %d — the engine is not deterministic for this checkpoint",
			rep.UnexplainedDiffs, *gateUnexplained)
		failed = true
	}
	if *smoke && rep.ExplainedDiffs > 0 {
		log.Printf("GATE FAILED: %d explained diffs %v — the smoke replays its own checkpoint without live traffic, so none has a reason",
			rep.ExplainedDiffs, rep.Explanations)
		failed = true
	}
	if failed {
		os.Exit(1)
	}
}

// smokeRecord drives a serve session through a real engine with the flight
// recorder at sample rate 1 mirroring to segDir: test-split requests, a
// few repeats (cache hits), and a few invalid departures (error capture).
func smokeRecord(c *deepod.City, snap *infer.Snapshot,
	match func(context.Context, traj.ODInput) (traj.MatchedOD, error),
	segDir string, requests int) error {
	rec, err := recorder.New(recorder.Config{
		SampleRate:    1,
		Dir:           segDir,
		SegmentEvents: 64, // several segments even in a short session
		MaxSegments:   64,
		Meta:          map[string]string{"city": c.Name, "model": snap.ID, "mode": "smoke"},
		Registry:      obs.NewRegistry(),
	})
	if err != nil {
		return err
	}
	eng, err := infer.New(infer.Config{
		Match:        match,
		Snapshot:     snap,
		Workers:      2, // recording needs no determinism, only the replay does
		QueueDepth:   2 * requests,
		CacheEntries: 4096,
		Observers:    []infer.Observer{rec},
		Registry:     obs.NewRegistry(),
	})
	if err != nil {
		rec.Close()
		return err
	}
	trips := c.Split.Test
	if len(trips) == 0 {
		trips = c.Records
	}
	// Fire the whole request set as one concurrent burst so the queue backs
	// up and the workers drain multi-request batches. The replay below
	// re-answers those same events one at a time on one worker, so zero
	// unexplained diffs proves on a real checkpoint that the batch a request
	// was drained in never changes its answer.
	var (
		mu     sync.Mutex
		wg     sync.WaitGroup
		served int
	)
	for i := 0; i < requests && len(trips) > 0; i++ {
		trip := trips[i%len(trips)]
		od := trip.OD
		od.External = c.Grid.External(od.DepartSec)
		wg.Add(1)
		go func(od traj.ODInput) {
			defer wg.Done()
			if _, err := eng.Do(context.Background(), od); err == nil {
				mu.Lock()
				served++
				mu.Unlock()
			}
		}(od)
	}
	wg.Wait()
	// A few immediate repeats, sequential so they deterministically hit the
	// now-populated estimate cache: cache-hit events in the recording.
	for i := 3; i < requests && len(trips) > 0; i += 7 {
		trip := trips[i%len(trips)]
		od := trip.OD
		od.External = c.Grid.External(od.DepartSec)
		if _, err := eng.Do(context.Background(), od); err == nil {
			served++
		}
	}
	for i := 0; i < 3; i++ { // errors are always captured
		_, _ = eng.Do(context.Background(), traj.ODInput{DepartSec: -1 - float64(i)})
	}
	eng.Close()
	rec.Close()
	if served == 0 {
		return fmt.Errorf("no requests served")
	}
	log.Printf("smoke: served %d estimates (+3 rejections), captured %d events",
		served, rec.Stats().Captured())
	return nil
}
