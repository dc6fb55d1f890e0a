package mapmatch

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"deepod/internal/citysim"
	"deepod/internal/geo"
	"deepod/internal/roadnet"
	"deepod/internal/traj"
)

func TestSessionTracksDrivenRoute(t *testing.T) {
	g := testGraph(t)
	m, err := New(g, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	p, err := roadnet.ShortestPath(g, 0, roadnet.VertexID(g.NumVertices()-1), 0, roadnet.FreeFlowCost(g))
	if err != nil {
		t.Fatal(err)
	}
	raw := driveRoute(g, p.Edges, 5, rng)

	s := m.newSession(m.NewSessionScratch())
	driven := map[roadnet.EdgeID]bool{}
	for _, e := range p.Edges {
		driven[e] = true
	}
	var totalMeters, onRoute float64
	for _, pt := range raw.Points {
		obs, err := s.Advance(pt)
		if err != nil {
			t.Fatalf("advance at t=%v: %v", pt.T, err)
		}
		for _, o := range obs {
			if o.ExitSec < o.EnterSec {
				t.Fatalf("observation time-reversed: %+v", o)
			}
			if dt := o.ExitSec - o.EnterSec; dt > 0 && o.Meters/dt > maxSpeedMPS {
				t.Fatalf("implausible speed %v m/s in %+v", o.Meters/dt, o)
			}
			totalMeters += o.Meters
			if driven[o.Edge] {
				onRoute += o.Meters
			}
		}
	}
	var want float64
	for _, e := range p.Edges {
		want += g.Edges[e].Length
	}
	if totalMeters < 0.6*want || totalMeters > 1.4*want {
		t.Fatalf("emitted %.0f m for a %.0f m route", totalMeters, want)
	}
	if frac := onRoute / totalMeters; frac < 0.7 {
		t.Fatalf("only %.0f%% of emitted meters lie on the driven route", frac*100)
	}
}

func TestSessionSpeedsMatchDriving(t *testing.T) {
	g := testGraph(t)
	m, err := New(g, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	p, err := roadnet.ShortestPath(g, 1, roadnet.VertexID(g.NumVertices()-2), 0, roadnet.FreeFlowCost(g))
	if err != nil {
		t.Fatal(err)
	}
	raw := driveRoute(g, p.Edges, 3, rng) // drives at a constant 10 m/s

	s := m.newSession(m.NewSessionScratch())
	var meters, secs float64
	for _, pt := range raw.Points {
		obs, err := s.Advance(pt)
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range obs {
			meters += o.Meters
			secs += o.ExitSec - o.EnterSec
		}
	}
	if secs == 0 {
		t.Fatal("no observations emitted")
	}
	if mean := meters / secs; math.Abs(mean-10) > 3 {
		t.Fatalf("mean observed speed %.1f m/s, drove at 10 m/s", mean)
	}
}

func TestSessionRejectsOutOfOrderAndDuplicates(t *testing.T) {
	g := testGraph(t)
	m, err := New(g, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	e := roadnet.EdgeID(3)
	at := func(f float64) geo.Point { return g.PointAlongEdge(e, f) }

	s := m.newSession(m.NewSessionScratch())
	if _, err := s.Advance(traj.GPSPoint{Pos: at(0.1), T: 100}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Advance(traj.GPSPoint{Pos: at(0.3), T: 105}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Advance(traj.GPSPoint{Pos: at(0.2), T: 101}); !errors.Is(err, ErrOutOfOrder) {
		t.Fatalf("out-of-order point: got %v, want ErrOutOfOrder", err)
	}
	if _, err := s.Advance(traj.GPSPoint{Pos: at(0.3), T: 105}); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("duplicate point: got %v, want ErrDuplicate", err)
	}
	// The session must survive the bad points and keep matching.
	obs, err := s.Advance(traj.GPSPoint{Pos: at(0.5), T: 110})
	if err != nil {
		t.Fatal(err)
	}
	if len(obs) == 0 {
		t.Fatal("no observations after recovering from bad points")
	}
	if s.lastT != 110 {
		t.Fatalf("last accepted time = %v, want 110", s.lastT)
	}
}

func TestSessionSameEdgeObservation(t *testing.T) {
	g := testGraph(t)
	m, err := New(g, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	e := roadnet.EdgeID(10)
	s := m.newSession(m.NewSessionScratch())
	if _, err := s.Advance(traj.GPSPoint{Pos: g.PointAlongEdge(e, 0.2), T: 0}); err != nil {
		t.Fatal(err)
	}
	obs, err := s.Advance(traj.GPSPoint{Pos: g.PointAlongEdge(e, 0.8), T: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(obs) != 1 {
		t.Fatalf("same-edge movement emitted %d observations, want 1: %+v", len(obs), obs)
	}
	o := obs[0]
	want := 0.6 * g.Edges[e].Length
	// The matched edge may be the twin of e; only the magnitude matters.
	if math.Abs(o.Meters-want) > 0.2*want+2 {
		t.Fatalf("observed %.1f m, drove %.1f m", o.Meters, want)
	}
	if o.EnterSec != 0 || o.ExitSec != 10 {
		t.Fatalf("observation span [%v, %v], want [0, 10]", o.EnterSec, o.ExitSec)
	}
}

func TestSessionStationaryVehicle(t *testing.T) {
	g := testGraph(t)
	m, err := New(g, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	p := g.PointAlongEdge(7, 0.5)
	s := m.newSession(m.NewSessionScratch())
	if _, err := s.Advance(traj.GPSPoint{Pos: p, T: 0}); err != nil {
		t.Fatal(err)
	}
	obs, err := s.Advance(traj.GPSPoint{Pos: p, T: 30})
	if err != nil {
		t.Fatal(err)
	}
	// A stopped vehicle is a real congestion signal: 0 m/s, full interval.
	var meters, secs float64
	for _, o := range obs {
		meters += o.Meters
		secs += o.ExitSec - o.EnterSec
	}
	if secs < 29.9 {
		t.Fatalf("stationary interval covers %.1f s, want 30", secs)
	}
	if meters > 1 {
		t.Fatalf("stationary vehicle moved %.1f m", meters)
	}
}

func TestTrackerTTLEviction(t *testing.T) {
	g := testGraph(t)
	m, err := New(g, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	tr := m.NewTracker(TrackerConfig{SessionTTLSec: 60})
	p := g.PointAlongEdge(0, 0.5)
	if _, err := tr.Advance("veh-a", traj.GPSPoint{Pos: p, T: 0}); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Advance("veh-b", traj.GPSPoint{Pos: p, T: 50}); err != nil {
		t.Fatal(err)
	}
	if tr.Sessions() != 2 {
		t.Fatalf("sessions = %d, want 2", tr.Sessions())
	}
	if n := tr.Sweep(100); n != 1 {
		t.Fatalf("sweep at t=100 evicted %d sessions, want 1 (veh-a idle 100s)", n)
	}
	if tr.Sessions() != 1 || tr.Evicted() != 1 {
		t.Fatalf("sessions = %d evicted = %d after sweep", tr.Sessions(), tr.Evicted())
	}
	// veh-a comes back: a fresh session, first point anchors without error.
	if _, err := tr.Advance("veh-a", traj.GPSPoint{Pos: p, T: 120}); err != nil {
		t.Fatal(err)
	}
	if tr.Sessions() != 2 {
		t.Fatalf("sessions = %d after re-appearance, want 2", tr.Sessions())
	}
}

func TestTrackerCapEviction(t *testing.T) {
	g := testGraph(t)
	m, err := New(g, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	tr := m.NewTracker(TrackerConfig{MaxSessions: 3})
	p := g.PointAlongEdge(0, 0.5)
	for i := 0; i < 5; i++ {
		v := fmt.Sprintf("veh-%d", i)
		if _, err := tr.Advance(v, traj.GPSPoint{Pos: p, T: float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Sessions() != 3 {
		t.Fatalf("sessions = %d, want cap of 3", tr.Sessions())
	}
	if tr.Evicted() != 2 {
		t.Fatalf("evicted = %d, want 2", tr.Evicted())
	}
	// The survivors must be the most recent vehicles.
	for _, v := range []string{"veh-2", "veh-3", "veh-4"} {
		if _, ok := tr.sessions[v]; !ok {
			t.Fatalf("recent vehicle %s was evicted", v)
		}
	}
}

func TestTrackerOutOfOrderDoesNotAdvanceClock(t *testing.T) {
	g := testGraph(t)
	m, err := New(g, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	tr := m.NewTracker(TrackerConfig{})
	p := g.PointAlongEdge(0, 0.5)
	if _, err := tr.Advance("v", traj.GPSPoint{Pos: p, T: 100}); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Advance("v", traj.GPSPoint{Pos: p, T: 40}); !errors.Is(err, ErrOutOfOrder) {
		t.Fatalf("got %v, want ErrOutOfOrder", err)
	}
	if ts := tr.sessions["v"]; ts.lastSeen != 100 {
		t.Fatalf("rejected point moved lastSeen to %v", ts.lastSeen)
	}
}

func BenchmarkSessionAdvance(b *testing.B) {
	g := testGraph(b)
	m, err := New(g, DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	p, err := roadnet.ShortestPath(g, 0, roadnet.VertexID(g.NumVertices()-1), 0, roadnet.FreeFlowCost(g))
	if err != nil {
		b.Fatal(err)
	}
	raw := driveRoute(g, p.Edges, 5, rng)
	s := m.newSession(m.NewSessionScratch())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pt := raw.Points[i%len(raw.Points)]
		pt.T = float64(i) * 3 // keep timestamps monotone across replays
		if _, err := s.Advance(pt); err != nil {
			b.Fatal(err)
		}
	}
}

// singleTarget is the route search the search trees replaced, kept as the
// reference they are held to: a hop-limited Dijkstra-lite from `from` that
// stops as soon as `to` is settled.
type singleTarget struct {
	nodes []expNode
	tree  []treeNode
	out   []roadnet.EdgeID
}

// find is run in the shape of searchTrees.find.
func (ls *singleTarget) find(g *roadnet.Graph, from, to roadnet.VertexID, maxHops, maxExp int) ([]treeNode, int, bool) {
	i, ok := ls.run(g, from, to, maxHops, maxExp)
	if !ok {
		return nil, 0, false
	}
	ls.tree = ls.tree[:0]
	for _, n := range ls.nodes {
		ls.tree = append(ls.tree, treeNode{dist: n.dist, v: int32(n.v), parent: n.parent, via: int32(n.via)})
	}
	return ls.tree, i, true
}

// route returns the intermediate edge sequence from vertex `from` to vertex
// `to`. The slice aliases the scratch and is valid until the next search.
func (ls *singleTarget) route(g *roadnet.Graph, from, to roadnet.VertexID, maxHops, maxExp int) ([]roadnet.EdgeID, bool) {
	i, ok := ls.run(g, from, to, maxHops, maxExp)
	if !ok {
		return nil, false
	}
	ls.out = ls.out[:0]
	for j := int32(i); j > 0; j = ls.nodes[j].parent {
		ls.out = append(ls.out, ls.nodes[j].via)
	}
	// Reverse in place: collected tail-first.
	for l, r := 0, len(ls.out)-1; l < r; l, r = l+1, r-1 {
		ls.out[l], ls.out[r] = ls.out[r], ls.out[l]
	}
	return ls.out, true
}

// run expands from `from` until `to` is settled or bounds are hit, returning
// the index of the settled target node.
func (ls *singleTarget) run(g *roadnet.Graph, from, to roadnet.VertexID, maxHops, maxExp int) (int, bool) {
	if from == to {
		// Zero-length connection (candidate heads meet); no intermediates.
		ls.nodes = append(ls.nodes[:0], expNode{v: from})
		return 0, true
	}
	ls.nodes = append(ls.nodes[:0], expNode{v: from, parent: -1})
	for {
		// Pick the unsettled node with the smallest distance (linear scan —
		// the list stays tiny under the expansion cap).
		best := -1
		for i := range ls.nodes {
			if !ls.nodes[i].done && (best == -1 || ls.nodes[i].dist < ls.nodes[best].dist) {
				best = i
			}
		}
		if best == -1 {
			return 0, false
		}
		n := &ls.nodes[best]
		n.done = true
		if n.v == to {
			return best, true
		}
		if int(n.depth) >= maxHops || len(ls.nodes) >= maxExp {
			continue
		}
		for _, e := range g.Out(n.v) {
			edge := &g.Edges[e]
			nd := n.dist + edge.Length
			// Dedup by target vertex: keep only the cheaper occurrence.
			seen := false
			for i := range ls.nodes {
				if ls.nodes[i].v == edge.To {
					seen = true
					if !ls.nodes[i].done && nd < ls.nodes[i].dist {
						ls.nodes[i].dist = nd
						ls.nodes[i].parent = int32(best)
						ls.nodes[i].via = e
						ls.nodes[i].depth = n.depth + 1
					}
					break
				}
			}
			if !seen && len(ls.nodes) < maxExp {
				ls.nodes = append(ls.nodes, expNode{
					v: edge.To, dist: nd, parent: int32(best), via: e, depth: n.depth + 1,
				})
				n = &ls.nodes[best] // append may have moved the backing array
			}
		}
	}
}

// beijingGraph is the network the repo benchmark serves: the beijing-s
// preset at deepod.BuildCity's default seed.
func beijingGraph(t testing.TB) *roadnet.Graph {
	t.Helper()
	cfg, err := roadnet.CityPreset("beijing-s")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed++
	g, err := roadnet.GenerateCity(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestSearchTreesMatchSingleTargetSearch holds every route search a session
// can make to the search it replaced: for every vertex pair, the same
// reachability, the same distance bits and the same route edges. One
// searchTrees serves every bound in turn, so the rebuild on a change of
// bounds is held too.
func TestSearchTreesMatchSingleTargetSearch(t *testing.T) {
	for _, c := range []struct {
		name string
		g    *roadnet.Graph
	}{{"testGraph", testGraph(t)}, {"beijing-s", beijingGraph(t)}} {
		var trees searchTrees
		var ref singleTarget
		nv := roadnet.VertexID(c.g.NumVertices())
		reached := 0
		for _, hops := range []int{1, 2, 4, 8} {
			for _, exp := range []int{1, 2, 8, 64} {
				for from := roadnet.VertexID(0); from < nv; from++ {
					for to := roadnet.VertexID(0); to < nv; to++ {
						wt, wi, wok := ref.find(c.g, from, to, hops, exp)
						gt, gi, gok := trees.find(c.g, from, to, hops, exp)
						if gok != wok {
							t.Fatalf("%s hops %d exp %d: %d→%d ok %v, single-target search %v", c.name, hops, exp, from, to, gok, wok)
						}
						if !gok {
							continue
						}
						reached++
						if math.Float64bits(gt[gi].dist) != math.Float64bits(wt[wi].dist) {
							t.Fatalf("%s hops %d exp %d: %d→%d dist %v, single-target search %v", c.name, hops, exp, from, to, gt[gi].dist, wt[wi].dist)
						}
						wr, _ := ref.route(c.g, from, to, hops, exp)
						if gr := appendRoute(nil, gt, gi); fmt.Sprint(gr) != fmt.Sprint(wr) {
							t.Fatalf("%s hops %d exp %d: %d→%d route %v, single-target search %v", c.name, hops, exp, from, to, gr, wr)
						}
					}
				}
			}
		}
		if reached <= 16*int(nv) {
			t.Fatalf("%s: only %d pairs reached beyond from == to; the check is vacuous", c.name, reached)
		}
	}
}

// probeFleet is a beijing-s probe stream: vehicles reporting every period
// seconds as they cruise the congestion field for minutes from 08:00 of day
// 1, sorted by time.
func probeFleet(t testing.TB, g *roadnet.Graph, vehicles int, period, minutes float64) []citysim.VehicleProbe {
	t.Helper()
	tf, err := citysim.NewTraffic(g, 2*86400, 5)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := citysim.NewProbeStream(tf, citysim.ProbeConfig{Vehicles: vehicles, PeriodSec: period, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	const from = 86400 + 8*3600
	return ps.Window(from, from+60*minutes)
}

// TestTrackerMatchesSingleTargetSearch runs a fleet through a Tracker on
// the search trees and one on the single-target search: every observation
// and every error must be the same. Reports 5 s apart are the benchmark's;
// reports 45 s apart often cross whole segments between two points.
func TestTrackerMatchesSingleTargetSearch(t *testing.T) {
	g := beijingGraph(t)
	m, err := New(g, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, period := range []float64{5, 45} {
		got := m.NewTracker(TrackerConfig{})
		want := SingleTargetSearch(m).NewTracker(TrackerConfig{})
		routed := 0
		for _, p := range probeFleet(t, g, 200, period, 20) {
			pt := traj.GPSPoint{Pos: p.Pos, T: p.T}
			wobs, werr := want.Advance(p.Vehicle, pt)
			gobs, gerr := got.Advance(p.Vehicle, pt)
			if gerr != werr {
				t.Fatalf("%s at %v: error %v, single-target search %v", p.Vehicle, p.T, gerr, werr)
			}
			if len(gobs) != len(wobs) {
				t.Fatalf("%s at %v: %d observations, single-target search %d", p.Vehicle, p.T, len(gobs), len(wobs))
			}
			for i := range gobs {
				gw, ww := gobs[i], wobs[i]
				if gw.Edge != ww.Edge || math.Float64bits(gw.EnterSec) != math.Float64bits(ww.EnterSec) ||
					math.Float64bits(gw.ExitSec) != math.Float64bits(ww.ExitSec) || math.Float64bits(gw.Meters) != math.Float64bits(ww.Meters) {
					t.Fatalf("%s at %v: observation %d is %+v, single-target search %+v", p.Vehicle, p.T, i, gw, ww)
				}
			}
			if len(gobs) > 2 {
				routed++
			}
		}
		if period > 5 && routed < 100 {
			t.Fatalf("period %v s: %d transitions crossed an intermediate segment; the check is nearly vacuous", period, routed)
		}
	}
}

// BenchmarkTrackerAdvance is the ingest worker's matching cost per probe: a
// beijing-s fleet through one Tracker, replayed with its clock shifted so
// every replay moves forward. The first replay builds the sessions and the
// search trees off the clock.
func BenchmarkTrackerAdvance(b *testing.B) {
	g := beijingGraph(b)
	m, err := New(g, DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	probes := probeFleet(b, g, 200, 5, 10)
	span := probes[len(probes)-1].T - probes[0].T + 60
	tr := m.NewTracker(TrackerConfig{})
	advance := func(i int) {
		p := &probes[i%len(probes)]
		_, _ = tr.Advance(p.Vehicle, traj.GPSPoint{Pos: p.Pos, T: p.T + span*float64(i/len(probes))})
	}
	for i := range probes {
		advance(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		advance(len(probes) + i)
	}
}
