package infer_test

import (
	"context"
	"testing"

	"deepod"
	"deepod/internal/infer"
	"deepod/internal/obs"
	"deepod/internal/traj"
)

// TestColdStreamHitShare pins the estimate cache's hit share on the
// paper's query model. The test split of chengdu-s (seed 1) draws every
// endpoint and departure from continuous distributions, so served through
// an engine with tteserve's default cache (-cache 8192, -cache-ttl 5m) it
// gets no hit at all. Only byte-identical re-sends hit: 64 of the same
// requests sent again are 64 hits, the model the estimate-hot workload
// measures. Matching is real; the model is a stub, because whether a
// request hits depends on its key alone.
func TestColdStreamHitShare(t *testing.T) {
	c, err := deepod.BuildCity("chengdu-s", deepod.CityOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	matcher, err := deepod.NewMatcher(c.Graph)
	if err != nil {
		t.Fatal(err)
	}
	e, err := infer.New(infer.Config{
		Match: func(ctx context.Context, od traj.ODInput) (traj.MatchedOD, error) {
			return deepod.MatchODCtx(ctx, matcher, od)
		},
		Snapshot: &infer.Snapshot{ID: "stub", Estimate: func(_ context.Context, od *traj.MatchedOD) float64 {
			return od.DepartSec
		}},
		CacheEntries: 8192,
		Registry:     obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	serve := func(recs []traj.TripRecord) (hits int) {
		t.Helper()
		for _, rec := range recs {
			res, err := e.Do(context.Background(), rec.OD)
			if err != nil {
				t.Fatalf("Do: %v", err)
			}
			if res.Cached {
				hits++
			}
		}
		return hits
	}
	test := c.Split.Test
	if len(test) < 64 {
		t.Fatalf("test split has %d trips, want at least 64", len(test))
	}
	if hits := serve(test); hits != 0 {
		t.Errorf("cold stream: %d hits in %d requests, want 0", hits, len(test))
	}
	if hits := serve(test[:64]); hits != 64 {
		t.Errorf("re-sent requests: %d hits in 64, want 64", hits)
	}
	t.Logf("cold stream: 0 hits in %d requests; re-sent: 64 of 64", len(test))
}
