package roadnet

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"deepod/internal/geo"
)

func testCity(t testing.TB) *Graph {
	t.Helper()
	g, err := GenerateCity(SmallCity("t", 3))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestGenerateCityStructure(t *testing.T) {
	cfg := SmallCity("t", 3)
	g, err := GenerateCity(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != cfg.Rows*cfg.Cols {
		t.Fatalf("vertices = %d, want %d", g.NumVertices(), cfg.Rows*cfg.Cols)
	}
	if g.NumEdges() == 0 {
		t.Fatal("no edges generated")
	}
	// Every edge length must roughly match a block.
	for _, e := range g.Edges {
		if e.Length < cfg.BlockMeters*0.3 || e.Length > cfg.BlockMeters*2 {
			t.Fatalf("edge %d has implausible length %v", e.ID, e.Length)
		}
	}
	// Determinism.
	g2, err := GenerateCity(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumEdges() != g.NumEdges() {
		t.Fatal("same config produced different cities")
	}
	for i := range g.Edges {
		if g.Edges[i] != g2.Edges[i] {
			t.Fatal("edge mismatch between identical generations")
		}
	}
}

func TestGenerateCityValidation(t *testing.T) {
	bad := SmallCity("t", 1)
	bad.Rows = 1
	if _, err := GenerateCity(bad); err == nil {
		t.Fatal("1-row city accepted")
	}
	bad = SmallCity("t", 1)
	bad.Jitter = 0.9
	if _, err := GenerateCity(bad); err == nil {
		t.Fatal("jitter 0.9 accepted")
	}
	bad = SmallCity("t", 1)
	bad.OneWayFrac = 1
	if _, err := GenerateCity(bad); err == nil {
		t.Fatal("one-way fraction 1 accepted")
	}
}

func TestCityPresets(t *testing.T) {
	sizes := map[string]int{}
	for _, name := range []string{"chengdu-s", "xian-s", "beijing-s"} {
		cfg, err := CityPreset(name)
		if err != nil {
			t.Fatal(err)
		}
		g, err := GenerateCity(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sizes[name] = g.NumEdges()
	}
	if !(sizes["chengdu-s"] < sizes["beijing-s"] && sizes["xian-s"] < sizes["beijing-s"]) {
		t.Fatalf("beijing-s should be the largest network: %v", sizes)
	}
	if _, err := CityPreset("atlantis"); err == nil {
		t.Fatal("unknown preset accepted")
	}
}

func TestRiverSeversVerticalStreets(t *testing.T) {
	cfg := SmallCity("t", 3)
	cfg.RiverAfterRow, cfg.RiverBridges = 3, 2
	g, err := GenerateCity(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Count vertical edges crossing between rows 3 and 4: only bridge
	// columns should survive (2 bridges × 2 directions).
	crossing := 0
	for _, e := range g.Edges {
		fr, to := int(e.From)/cfg.Cols, int(e.To)/cfg.Cols
		if (fr == 3 && to == 4) || (fr == 4 && to == 3) {
			crossing++
		}
	}
	if crossing != 4 {
		t.Fatalf("river crossing edges = %d, want 4 (2 bridges, both directions)", crossing)
	}
	// Both sides must stay mutually reachable via the bridges.
	if _, err := ShortestPath(g, 0, VertexID(g.NumVertices()-1), 0, FreeFlowCost(g)); err != nil {
		t.Fatalf("river disconnected the city: %v", err)
	}
	if _, err := ShortestPath(g, VertexID(g.NumVertices()-1), 0, 0, FreeFlowCost(g)); err != nil {
		t.Fatalf("river disconnected the reverse direction: %v", err)
	}
}

func TestShortestPathProperties(t *testing.T) {
	g := testCity(t)
	cost := FreeFlowCost(g)
	err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		src := VertexID(rng.Intn(g.NumVertices()))
		dst := VertexID(rng.Intn(g.NumVertices()))
		p, err := ShortestPath(g, src, dst, 0, cost)
		if err != nil {
			return true // disconnected pair is legal with one-way streets
		}
		if src == dst {
			return len(p.Edges) == 0 && p.Cost == 0
		}
		if err := ValidatePath(g, p.Edges); err != nil {
			t.Logf("invalid path: %v", err)
			return false
		}
		if len(p.Edges) > 0 {
			if g.Edges[p.Edges[0]].From != src || g.Edges[p.Edges[len(p.Edges)-1]].To != dst {
				return false
			}
		}
		// Cost equals the sum of edge costs.
		var s float64
		for _, e := range p.Edges {
			s += cost(e, 0)
		}
		return math.Abs(s-p.Cost) < 1e-9
	}, &quick.Config{MaxCount: 60})
	if err != nil {
		t.Fatal(err)
	}
}

func TestShortestPathErrors(t *testing.T) {
	g := testCity(t)
	if _, err := ShortestPath(g, -1, 0, 0, FreeFlowCost(g)); err == nil {
		t.Fatal("negative source accepted")
	}
	if _, err := ShortestPath(g, 0, 1, 0, func(EdgeID, float64) float64 { return math.NaN() }); err == nil {
		t.Fatal("NaN cost accepted")
	}
}

func TestPathLength(t *testing.T) {
	g := testCity(t)
	p, err := ShortestPath(g, 0, VertexID(g.NumVertices()-1), 0, FreeFlowCost(g))
	if err != nil {
		t.Fatal(err)
	}
	var want float64
	for _, e := range p.Edges {
		want += g.Edges[e].Length
	}
	if got := PathLength(g, p.Edges); math.Abs(got-want) > 1e-9 {
		t.Fatalf("PathLength = %v, want %v", got, want)
	}
}

func TestNewGraphValidation(t *testing.T) {
	v := []Vertex{{ID: 0}, {ID: 1}}
	if _, err := NewGraph(v, []Edge{{ID: 0, From: 0, To: 5, Length: 1, FreeSpeed: 1}}); err == nil {
		t.Fatal("dangling edge accepted")
	}
	if _, err := NewGraph(v, []Edge{{ID: 0, From: 0, To: 1, Length: 0, FreeSpeed: 1}}); err == nil {
		t.Fatal("zero-length edge accepted")
	}
	if _, err := NewGraph(v, []Edge{{ID: 0, From: 0, To: 1, Length: 1, FreeSpeed: -2}}); err == nil {
		t.Fatal("negative speed accepted")
	}
	if _, err := NewGraph(v, []Edge{{ID: 7, From: 0, To: 1, Length: 1, FreeSpeed: 1}}); err == nil {
		t.Fatal("non-dense edge ID accepted")
	}
}

func TestAdjacency(t *testing.T) {
	g := testCity(t)
	for vid := 0; vid < g.NumVertices(); vid++ {
		for _, e := range g.Out(VertexID(vid)) {
			if g.Edges[e].From != VertexID(vid) {
				t.Fatalf("Out(%d) lists edge %d with From %d", vid, e, g.Edges[e].From)
			}
		}
	}
	for _, e := range g.Edges {
		n := 0
		for _, out := range g.Out(e.From) {
			if out == e.ID {
				n++
			}
		}
		if n != 1 {
			t.Fatalf("Out(%d) lists edge %d %d times", e.From, e.ID, n)
		}
	}
}

func TestLineGraph(t *testing.T) {
	g := testCity(t)
	// Two synthetic trajectories sharing a turn.
	var turnA, turnB EdgeID = -1, -1
	for _, e := range g.Edges {
		for _, next := range g.Out(e.To) {
			if g.Edges[next].To != e.From { // not a U-turn
				turnA, turnB = e.ID, next
				break
			}
		}
		if turnA >= 0 {
			break
		}
	}
	if turnA < 0 {
		t.Fatal("no turn found in city")
	}
	lg, err := BuildLineGraph(g, [][]EdgeID{{turnA, turnB}, {turnA, turnB}}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if lg.NumNodes != g.NumEdges() {
		t.Fatalf("line graph nodes = %d, want %d", lg.NumNodes, g.NumEdges())
	}
	// The co-passed link must weigh base + 2.
	found := false
	for _, l := range lg.Adj[turnA] {
		if l.To == int(turnB) {
			found = true
			if l.Weight != 2.5 {
				t.Fatalf("co-occurrence weight = %v, want 2.5", l.Weight)
			}
		} else if l.Weight != 0.5 {
			t.Fatalf("untraversed link weight = %v, want base 0.5", l.Weight)
		}
	}
	if !found {
		t.Fatal("line graph missing the traversed link")
	}
	if lg.NumLinks() == 0 {
		t.Fatal("line graph has no links")
	}
	if _, err := BuildLineGraph(g, nil, -1); err == nil {
		t.Fatal("negative base accepted")
	}
	if _, err := BuildLineGraph(g, [][]EdgeID{{0, EdgeID(g.NumEdges() + 5)}}, 0); err == nil {
		t.Fatal("out-of-range trajectory edge accepted")
	}
}

func TestEdgeIndexNearest(t *testing.T) {
	g := testCity(t)
	idx, err := NewEdgeIndex(g, 150)
	if err != nil {
		t.Fatal(err)
	}
	// Query exactly on an edge midpoint: the nearer of that edge and its
	// reverse twin, and at exactly equal distance the lower-numbered one (a
	// cell lists its segments in EdgeID order and the first seen wins).
	for trial := 0; trial < 20; trial++ {
		e := EdgeID(trial * 7 % g.NumEdges())
		mid := g.PointAlongEdge(e, 0.5)
		c, err := idx.NearestEdge(mid)
		if err != nil {
			t.Fatal(err)
		}
		want := e
		a, b := g.EdgePoints(e)
		_, _, de := geo.ProjectOnSegment(mid, a, b)
		for _, tw := range g.Out(g.Edges[e].To) {
			if g.Edges[tw].To != g.Edges[e].From {
				continue
			}
			_, _, dt := geo.ProjectOnSegment(mid, b, a)
			if dt < de || (dt == de && tw < e) {
				want = tw
			}
		}
		if c.Edge != want {
			t.Fatalf("nearest edge to the midpoint of %d is %d (%v m away), want %d", e, c.Edge, c.Dist, want)
		}
	}
	// k-nearest is ordered.
	cands := idx.Nearest(geo.Point{X: 500, Y: 500}, 5)
	for i := 1; i < len(cands); i++ {
		if cands[i].Dist < cands[i-1].Dist {
			t.Fatal("Nearest results not ordered by distance")
		}
	}
}

func TestGraphJSONRoundTrip(t *testing.T) {
	g := testCity(t)
	var buf bytes.Buffer
	if err := g.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumVertices() != g.NumVertices() || g2.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip changed sizes: %d/%d vs %d/%d",
			g2.NumVertices(), g2.NumEdges(), g.NumVertices(), g.NumEdges())
	}
	for i := range g.Edges {
		if g.Edges[i] != g2.Edges[i] {
			t.Fatalf("edge %d changed in round trip", i)
		}
	}
	for i := range g.Vertices {
		if g.Vertices[i] != g2.Vertices[i] {
			t.Fatalf("vertex %d changed in round trip", i)
		}
	}
}

func TestReadJSONRejectsGarbage(t *testing.T) {
	if _, err := ReadJSON(strings.NewReader("nonsense")); err == nil {
		t.Fatal("garbage accepted")
	}
	// Unknown class.
	bad := `{"vertices":[{"id":0,"x":0,"y":0},{"id":1,"x":1,"y":0}],
	         "edges":[{"id":0,"from":0,"to":1,"length_m":1,"free_speed_mps":1,"class":"hyperloop"}]}`
	if _, err := ReadJSON(strings.NewReader(bad)); err == nil {
		t.Fatal("unknown class accepted")
	}
	// Dangling edge caught by NewGraph.
	bad2 := `{"vertices":[{"id":0,"x":0,"y":0}],
	          "edges":[{"id":0,"from":0,"to":9,"length_m":1,"free_speed_mps":1,"class":"local"}]}`
	if _, err := ReadJSON(strings.NewReader(bad2)); err == nil {
		t.Fatal("dangling edge accepted")
	}
}

// PathLength returns the total length in meters of a path's edges.
func PathLength(g *Graph, edges []EdgeID) float64 {
	var s float64
	for _, e := range edges {
		s += g.Edges[e].Length
	}
	return s
}

// ValidatePath checks edge connectivity (each edge's head is the next
// edge's tail).
func ValidatePath(g *Graph, edges []EdgeID) error {
	for i := 1; i < len(edges); i++ {
		if g.Edges[edges[i-1]].To != g.Edges[edges[i]].From {
			return fmt.Errorf("roadnet: path broken between positions %d and %d", i-1, i)
		}
	}
	return nil
}

// NumLinks returns the total number of directed links.
func (lg *LineGraph) NumLinks() int {
	n := 0
	for _, a := range lg.Adj {
		n += len(a)
	}
	return n
}
