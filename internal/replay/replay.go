// Package replay re-executes flight-recorder segments through a real
// inference engine and diffs the answers against what was served — the
// consumer side of the wide-event capture in internal/recorder.
//
// The determinism argument: an estimate is a pure function of (matched OD,
// external features, model weights). Replay pins all three — the same city
// graph rebuilds the same matcher, the external features come from the
// training-time prior (a deterministic function of the departure time),
// and the checkpoint fixes the weights — and runs the engine with a fixed
// single worker, batch size 1, no live traffic source (the traffic epoch is
// therefore pinned at 0) and no estimate cache, so every event is a fresh
// forward. The serving cache is keyed on the exact request, so a recorded
// hit is the bits its request computes, and is checked like any other
// answer. Under those conditions, replaying a segment against the
// identical checkpoint must reproduce every recorded estimate bit-for-bit;
// any remaining difference is a real nondeterminism bug, and the report
// calls it unexplained.
//
// Differences that replay cannot reproduce by construction are explained
// and counted separately:
//
//   - the recording merged live traffic into the features (TrafficLive),
//     or served a cache entry computed under a live epoch — the offline
//     engine has no probe stream;
//   - the recording was served by a different checkpoint than the one
//     loaded for replay — that is the regression-diffing mode, and the
//     per-generation/per-cell tables quantify exactly how the answers
//     moved.
//
// Shed outcomes (queue full, queue timeout) and cancellations are serving
// artifacts of load, not of the model; replay skips them and says so.
package replay

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"deepod/internal/infer"
	"deepod/internal/obs"
	"deepod/internal/recorder"
	"deepod/internal/traj"
)

// Config pins the replay environment.
type Config struct {
	// Snapshot is the checkpoint to replay against (required).
	Snapshot *infer.Snapshot
	// Match snaps OD inputs onto the road network (required) — build it
	// from the same city the recording served, or matching itself diverges.
	Match func(ctx context.Context, od traj.ODInput) (traj.MatchedOD, error)
	// External resolves the training-time prior features for a departure
	// (optional; the recording's serve path used the same function for
	// every estimate it answered without live traffic). It is called only
	// for events the engine's Validate accepts.
	External func(departSec float64) *traj.ExternalFeatures
	// ToleranceSec is the regression threshold: replayed answers that
	// moved more than this count as changed in the report (default 1s).
	// Independent of the bit-for-bit determinism check.
	ToleranceSec float64
	// Registry receives the replay engine's metrics (default: a private
	// registry, so replay never pollutes a live process's exposition).
	Registry *obs.Registry
}

// DiffStats aggregates estimate differences for one report bucket.
type DiffStats struct {
	// Events is how many served events landed in the bucket.
	Events int `json:"events"`
	// MAESec is the mean |replayed − recorded| in seconds.
	MAESec float64 `json:"mae_sec"`
	// MaxAbsSec is the worst single difference.
	MaxAbsSec float64 `json:"max_abs_sec"`
	// Changed counts answers that moved beyond the tolerance.
	Changed int `json:"changed"`

	sumAbs float64
}

func (d *DiffStats) add(diff, tol float64) {
	d.Events++
	a := math.Abs(diff)
	d.sumAbs += a
	if a > d.MaxAbsSec {
		d.MaxAbsSec = a
	}
	if a > tol {
		d.Changed++
	}
	d.MAESec = d.sumAbs / float64(d.Events)
}

// Report is the replay outcome — BENCH_replay.json's top-level shape.
type Report struct {
	// Snapshot is the checkpoint ID replayed against.
	Snapshot string `json:"snapshot"`
	// Events is the segment's event count; Replayed how many re-executed
	// (served + reproducible errors); Skipped the rest, by class.
	Events   int            `json:"events"`
	Replayed int            `json:"replayed"`
	Skipped  map[string]int `json:"skipped,omitempty"`

	// Matched counts bit-for-bit identical estimates. ExplainedDiffs had
	// a structural reason to differ (live traffic, checkpoint mismatch),
	// broken out in Explanations. UnexplainedDiffs is the determinism
	// gate: same checkpoint, pinned inputs, different answer.
	Matched          int            `json:"matched"`
	ExplainedDiffs   int            `json:"explained_diffs"`
	UnexplainedDiffs int            `json:"unexplained_diffs"`
	Explanations     map[string]int `json:"explanations,omitempty"`

	// ErrorsReproduced / ErrorsChanged track recorded error outcomes
	// (invalid input, match failures) re-executed for the same class. A
	// changed error class against the same checkpoint is also unexplained.
	ErrorsReproduced int `json:"errors_reproduced"`
	ErrorsChanged    int `json:"errors_changed"`

	// Overall is the estimate diff over every replayed served event;
	// PerGeneration and PerOriginCell slice it by the recorded model
	// generation and origin grid cell.
	ToleranceSec  float64               `json:"tolerance_sec"`
	Overall       DiffStats             `json:"overall"`
	PerGeneration map[string]*DiffStats `json:"per_generation,omitempty"`
	PerOriginCell map[string]*DiffStats `json:"per_origin_cell,omitempty"`

	// ElapsedSec and EventsPerSec measure replay throughput.
	ElapsedSec   float64 `json:"elapsed_sec"`
	EventsPerSec float64 `json:"events_per_sec"`
}

// Run replays events (in capture order) against the configured snapshot.
func Run(ctx context.Context, cfg Config, events []recorder.Event) (*Report, error) {
	if cfg.Snapshot == nil || cfg.Match == nil {
		return nil, fmt.Errorf("replay: Config needs Snapshot and Match")
	}
	if cfg.ToleranceSec <= 0 {
		cfg.ToleranceSec = 1
	}
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry()
	}
	eng, err := infer.New(infer.Config{
		Match:    cfg.Match,
		Snapshot: cfg.Snapshot,
		// The determinism pins: one worker, no traffic source (epoch 0
		// everywhere), no cache (every event a forward), generous queue
		// timeout so machine load can never masquerade as a shed.
		Workers:      1,
		QueueDepth:   1,
		QueueTimeout: time.Minute,
		Registry:     cfg.Registry,
	})
	if err != nil {
		return nil, fmt.Errorf("replay: engine: %w", err)
	}
	defer eng.Close()

	ordered := append([]recorder.Event(nil), events...)
	sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].Seq < ordered[j].Seq })

	rep := &Report{
		Snapshot:      cfg.Snapshot.ID,
		Events:        len(ordered),
		Skipped:       map[string]int{},
		Explanations:  map[string]int{},
		ToleranceSec:  cfg.ToleranceSec,
		PerGeneration: map[string]*DiffStats{},
		PerOriginCell: map[string]*DiffStats{},
	}
	start := time.Now()
	for i := range ordered {
		ev := &ordered[i]
		switch ev.Err {
		case "overloaded", "queue_timeout", "canceled", "closed":
			// Load/lifecycle artifacts of the recording process, not
			// properties of the model; nothing to re-execute.
			rep.Skipped[ev.Err]++
			continue
		}
		// Validate first, as serve does: a recorded rejection resolves no
		// external bundle, and its error is the one Do would return.
		od := traj.ODInput{Origin: ev.Origin, Dest: ev.Dest, DepartSec: ev.DepartSec}
		var res infer.Result
		doErr := eng.Validate(od)
		if doErr == nil {
			if cfg.External != nil {
				od.External = cfg.External(ev.DepartSec)
			}
			res, doErr = eng.Do(ctx, od)
		}
		rep.Replayed++
		sameSnapshot := ev.Snapshot == "" || ev.Snapshot == cfg.Snapshot.ID

		if ev.Err != "" {
			class, _ := recorder.ClassifyError(doErr)
			if class == ev.Err {
				rep.ErrorsReproduced++
			} else {
				rep.ErrorsChanged++
				if sameSnapshot {
					rep.UnexplainedDiffs++
				} else {
					rep.ExplainedDiffs++
					rep.Explanations["snapshot"]++
				}
			}
			continue
		}
		if doErr != nil {
			// A served request now errors: an answer changed in kind.
			rep.ErrorsChanged++
			if sameSnapshot {
				rep.UnexplainedDiffs++
			} else {
				rep.ExplainedDiffs++
				rep.Explanations["snapshot"]++
			}
			continue
		}

		diff := res.Seconds - ev.EstimateSec
		rep.Overall.add(diff, cfg.ToleranceSec)
		genKey := fmt.Sprintf("%d", ev.Generation)
		if rep.PerGeneration[genKey] == nil {
			rep.PerGeneration[genKey] = &DiffStats{}
		}
		rep.PerGeneration[genKey].add(diff, cfg.ToleranceSec)
		cellKey := fmt.Sprintf("%d", ev.OriginCell)
		if rep.PerOriginCell[cellKey] == nil {
			rep.PerOriginCell[cellKey] = &DiffStats{}
		}
		rep.PerOriginCell[cellKey].add(diff, cfg.ToleranceSec)

		switch {
		case math.Float64bits(res.Seconds) == math.Float64bits(ev.EstimateSec):
			rep.Matched++
		case ev.TrafficLive:
			rep.ExplainedDiffs++
			rep.Explanations["traffic_live"]++
		case ev.Cached && ev.TrafficEpoch != 0:
			rep.ExplainedDiffs++
			rep.Explanations["cached_live_epoch"]++
		case !sameSnapshot:
			rep.ExplainedDiffs++
			rep.Explanations["snapshot"]++
		default:
			rep.UnexplainedDiffs++
		}
	}
	rep.ElapsedSec = time.Since(start).Seconds()
	if rep.ElapsedSec > 0 {
		rep.EventsPerSec = float64(rep.Replayed) / rep.ElapsedSec
	}
	return rep, nil
}
