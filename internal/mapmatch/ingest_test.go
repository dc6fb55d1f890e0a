package mapmatch_test

import (
	"math"
	"testing"

	"deepod/internal/citysim"
	"deepod/internal/mapmatch"
	"deepod/internal/obs"
	"deepod/internal/roadnet"
	"deepod/internal/traffic"
)

// TestIngestorMatchesSingleTargetSearch feeds one beijing-s fleet, in the
// same batches, to an Ingestor on the search trees and one on the
// single-target search they replaced: the drained snapshots must hold the
// same speed on every edge, bit for bit.
func TestIngestorMatchesSingleTargetSearch(t *testing.T) {
	cfg, err := roadnet.CityPreset("beijing-s")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed++
	g, err := roadnet.GenerateCity(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tf, err := citysim.NewTraffic(g, 2*86400, 5)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := citysim.NewProbeStream(tf, citysim.ProbeConfig{Vehicles: 200, PeriodSec: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	m, err := mapmatch.New(g, mapmatch.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ingestor := func(m *mapmatch.Matcher) (*traffic.Ingestor, *traffic.Store) {
		s, err := traffic.NewStore(g, traffic.StoreConfig{Registry: obs.NewRegistry()})
		if err != nil {
			t.Fatal(err)
		}
		// One worker and a queue deep enough for the whole stream: the
		// store sees one order of observations and sheds nothing.
		in, err := traffic.NewIngestor(m, s, traffic.IngestConfig{Workers: 1, QueueDepth: 1024, Registry: obs.NewRegistry()})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(in.Close)
		return in, s
	}
	got, gotStore := ingestor(m)
	want, wantStore := ingestor(mapmatch.SingleTargetSearch(m))

	const from = 86400 + 8*3600
	for sec := 0.0; sec < 600; sec += 10 {
		var batch []traffic.Probe
		for _, p := range ps.Window(from+sec, from+sec+10) {
			batch = append(batch, traffic.Probe{Vehicle: p.Vehicle, X: p.Pos.X, Y: p.Pos.Y, T: p.T})
		}
		for _, in := range []*traffic.Ingestor{got, want} {
			if _, shed := in.Ingest(batch); shed != 0 {
				t.Fatalf("shed %d probes", shed)
			}
		}
	}
	got.Drain()
	want.Drain()
	gs, ws := gotStore.Snapshot(), wantStore.Snapshot()
	if gs.Covered == 0 {
		t.Fatal("no edge covered; the check is vacuous")
	}
	if gs.Epoch != ws.Epoch || gs.Covered != ws.Covered {
		t.Fatalf("epoch %d covered %d, single-target search %d / %d", gs.Epoch, gs.Covered, ws.Epoch, ws.Covered)
	}
	for e := range gs.SpeedMPS {
		if math.Float32bits(gs.SpeedMPS[e]) != math.Float32bits(ws.SpeedMPS[e]) {
			t.Fatalf("edge %d: %v m/s, single-target search %v", e, gs.SpeedMPS[e], ws.SpeedMPS[e])
		}
	}
}
