package mapmatch

import (
	"context"
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"deepod/internal/geo"
	"deepod/internal/roadnet"
	"deepod/internal/traj"
)

func testGraph(t testing.TB) *roadnet.Graph {
	t.Helper()
	cfg := roadnet.SmallCity("mm", 9)
	cfg.OneWayFrac = 0 // keep every street two-way for route checks
	g, err := roadnet.GenerateCity(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// Match is MatchCtx without a trace, for the tests below.
func (m *Matcher) Match(raw *traj.Raw) (traj.Trajectory, error) {
	return m.MatchCtx(context.Background(), raw)
}

func TestNewValidation(t *testing.T) {
	g := testGraph(t)
	bad := DefaultConfig()
	bad.SigmaMeters = 0
	if _, err := New(g, bad); err == nil {
		t.Fatal("zero sigma accepted")
	}
	if _, err := New(g, DefaultConfig()); err != nil {
		t.Fatal(err)
	}
}

func TestMatchPoint(t *testing.T) {
	g := testGraph(t)
	m, err := New(g, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// A point exactly on an edge must match the twin the tie rule names: of
	// the edge and its reverse at exactly equal distance, the lower-numbered
	// one (roadnet.EdgeIndex.NearestEdge), with the fraction along that twin.
	for _, target := range []roadnet.EdgeID{5, 6, 40, 41} {
		p := g.PointAlongEdge(target, 0.3)
		e, frac, err := m.MatchPointCtx(context.Background(), p)
		if err != nil {
			t.Fatal(err)
		}
		want, wantFrac := target, 0.3
		a, b := g.EdgePoints(target)
		_, _, dt := geo.ProjectOnSegment(p, a, b)
		for _, tw := range g.Out(g.Edges[target].To) {
			if g.Edges[tw].To != g.Edges[target].From {
				continue
			}
			_, _, dtw := geo.ProjectOnSegment(p, b, a)
			if dtw < dt || (dtw == dt && tw < target) {
				want, wantFrac = tw, 0.7
			}
		}
		if e != want {
			t.Fatalf("point on edge %d matched edge %d, want %d", target, e, want)
		}
		if math.Abs(frac-wantFrac) > 1e-9 {
			t.Fatalf("point on edge %d matched at fraction %v of edge %d, want %v", target, frac, e, wantFrac)
		}
	}
}

// driveRoute simulates a vehicle driving a given edge sequence at constant
// speed, emitting noisy GPS samples.
func driveRoute(g *roadnet.Graph, edges []roadnet.EdgeID, noise float64, rng *rand.Rand) traj.Raw {
	const speed = 10.0 // m/s
	var pts []traj.GPSPoint
	now := 0.0
	for _, e := range edges {
		a, b := g.EdgePoints(e)
		length := geo.Dist(a, b)
		steps := int(length/(speed*3)) + 1 // sample every ~3 s
		for s := 0; s < steps; s++ {
			f := float64(s) / float64(steps)
			p := geo.Lerp(a, b, f)
			pts = append(pts, traj.GPSPoint{
				Pos: geo.Point{X: p.X + rng.NormFloat64()*noise, Y: p.Y + rng.NormFloat64()*noise},
				T:   now + f*length/speed,
			})
		}
		now += length / speed
	}
	last := g.Edges[edges[len(edges)-1]]
	end := g.Vertices[last.To].Pos
	pts = append(pts, traj.GPSPoint{Pos: end, T: now})
	return traj.Raw{Points: pts}
}

func TestMatchRecoversDrivenRoute(t *testing.T) {
	g := testGraph(t)
	m, err := New(g, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	// Drive a shortest path between two far corners.
	p, err := roadnet.ShortestPath(g, 0, roadnet.VertexID(g.NumVertices()-1), 0, roadnet.FreeFlowCost(g))
	if err != nil {
		t.Fatal(err)
	}
	raw := driveRoute(g, p.Edges, 6, rng)
	got, err := m.Match(&raw)
	if err != nil {
		t.Fatal(err)
	}
	if err := got.Validate(g); err != nil {
		t.Fatalf("matched trajectory invalid: %v", err)
	}
	// The matched edge set must substantially overlap the driven route.
	driven := map[roadnet.EdgeID]bool{}
	for _, e := range p.Edges {
		driven[e] = true
	}
	overlap := 0
	for _, s := range got.Path {
		if driven[s.Edge] {
			overlap++
		}
	}
	if frac := float64(overlap) / float64(len(p.Edges)); frac < 0.7 {
		t.Fatalf("matched route overlaps only %.0f%% of the driven route", frac*100)
	}
	// Timing: total matched duration within 20%% of the driven duration.
	gotDur := got.Path[len(got.Path)-1].Exit - got.Path[0].Enter
	wantDur := raw.Points[len(raw.Points)-1].T - raw.Points[0].T
	if math.Abs(gotDur-wantDur) > 0.2*wantDur+5 {
		t.Fatalf("matched duration %v vs driven %v", gotDur, wantDur)
	}
}

func TestMatchTimeIntervalsMonotone(t *testing.T) {
	g := testGraph(t)
	m, err := New(g, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	p, err := roadnet.ShortestPath(g, 3, roadnet.VertexID(g.NumVertices()-4), 0, roadnet.FreeFlowCost(g))
	if err != nil {
		t.Fatal(err)
	}
	raw := driveRoute(g, p.Edges, 4, rng)
	got, err := m.Match(&raw)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(got.Path); i++ {
		if got.Path[i].Enter+1e-9 < got.Path[i-1].Exit {
			t.Fatalf("intervals overlap at step %d", i)
		}
	}
	if got.RStart < 0 || got.RStart > 1 || got.REnd < 0 || got.REnd > 1 {
		t.Fatalf("position ratios out of range: %v %v", got.RStart, got.REnd)
	}
}

func TestMatchRejectsBadInput(t *testing.T) {
	g := testGraph(t)
	m, err := New(g, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Match(&traj.Raw{Points: []traj.GPSPoint{{T: 0}}}); err == nil {
		t.Fatal("single-point trajectory accepted")
	}
	if _, err := m.Match(&traj.Raw{Points: []traj.GPSPoint{{T: 5}, {T: 0}}}); err == nil {
		t.Fatal("time-reversed trajectory accepted")
	}
	if _, err := m.Match(&traj.Raw{Points: []traj.GPSPoint{{T: 0}, {T: 5}, {T: 3}}}); err == nil {
		t.Fatal("timestamps decreasing mid-trace accepted")
	}
}

// TestMatchGolden pins Matcher.Match — the Viterbi path over
// EdgeIndex.Nearest(p, 6) that produces the training trajectories — to a
// hash recorded before OD endpoint matching moved off Nearest(p, 1): the
// endpoint tie rule must not reach the training data.
func TestMatchGolden(t *testing.T) {
	g := testGraph(t)
	m, err := New(g, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	put := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	last := roadnet.VertexID(g.NumVertices() - 1)
	for i, od := range [][2]roadnet.VertexID{{0, last}, {3, last - 3}, {last / 2, 1}, {last - 1, 7}} {
		p, err := roadnet.ShortestPath(g, od[0], od[1], 0, roadnet.FreeFlowCost(g))
		if err != nil {
			t.Fatal(err)
		}
		raw := driveRoute(g, p.Edges, 8, rand.New(rand.NewSource(int64(100+i))))
		got, err := m.Match(&raw)
		if err != nil {
			t.Fatal(err)
		}
		put(uint64(len(got.Path)))
		for _, s := range got.Path {
			put(uint64(s.Edge))
			put(math.Float64bits(s.Enter))
			put(math.Float64bits(s.Exit))
		}
		put(math.Float64bits(got.RStart))
		put(math.Float64bits(got.REnd))
	}
	const want uint64 = 0xcecc2a813315806e // recorded at the parent of this test
	if got := h.Sum64(); got != want {
		t.Fatalf("Match golden hash = %#x, want %#x: the Viterbi matcher's output changed", got, want)
	}
}
