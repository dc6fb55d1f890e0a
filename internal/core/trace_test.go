package core

import (
	"context"
	"testing"

	"deepod/internal/obs"
	"deepod/internal/roadnet"
	"deepod/internal/traj"
)

// TestEstimateSpansJoinTrace checks the online-estimation stages surface
// as spans in a request trace: one estimate's encode and estimate stages
// directly under the caller's span, and a batch's single encode and
// estimate stages under its estimate_batch span.
func TestEstimateSpansJoinTrace(t *testing.T) {
	gcfg := roadnet.SmallCity("trace", 3)
	gcfg.Rows, gcfg.Cols = 4, 4
	g, err := roadnet.GenerateCity(gcfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(tinyConfig(), g)
	if err != nil {
		t.Fatal(err)
	}
	ods := []traj.MatchedOD{
		{OriginEdge: 0, DestEdge: roadnet.EdgeID(g.NumEdges() - 1), RStart: 0.2, REnd: 0.3, DepartSec: 600},
		{OriginEdge: 1, DestEdge: 2, RStart: 0.5, REnd: 0.5, DepartSec: 1200},
	}

	ctx, tr := obs.StartTrace(context.Background(), "core-estimate", "/test")
	rctx, root := obs.StartSpan(ctx, "root")
	secs := append(m.EstimateBatchFusedCtx(rctx, ods), m.EstimateCtx(rctx, &ods[0]))
	d := root.End()
	if len(secs) != 3 {
		t.Fatalf("got %d estimates, want 3", len(secs))
	}
	for i, sec := range secs {
		if sec < 0 {
			t.Fatalf("estimate %d = %v, want non-negative", i, sec)
		}
	}

	ts := obs.NewTraceStore(obs.NewRegistry(), obs.TraceStoreConfig{SlowestN: -1, SampleRate: 1})
	if kept, _ := ts.Offer(tr, d); !kept {
		t.Fatal("trace not retained at SampleRate=1")
	}
	rec := ts.Traces(obs.TraceFilter{})[0]

	// Expected tree: root → (estimate_batch → (encode, estimate), encode, estimate).
	want := []struct {
		name   string
		parent int
	}{{"root", -1}, {"estimate_batch", 0}, {"encode", 1}, {"estimate", 1}, {"encode", 0}, {"estimate", 0}}
	if len(rec.Spans) != len(want) {
		t.Fatalf("got %d spans, want %d: %+v", len(rec.Spans), len(want), rec.Spans)
	}
	for i, w := range want {
		if sp := rec.Spans[i]; sp.Name != w.name || sp.Parent != w.parent {
			t.Fatalf("span %d = %+v, want %s under span %d", i, sp, w.name, w.parent)
		}
	}
	var count any
	for _, a := range rec.Spans[1].Attrs {
		if a.Key == "count" {
			count = a.Value
		}
	}
	if count != 2 {
		t.Fatalf("estimate_batch count attr = %v, want 2", count)
	}
}
