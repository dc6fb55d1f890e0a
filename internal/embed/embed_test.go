package embed

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"deepod/internal/roadnet"
	"deepod/internal/timeslot"
)

// ringGraph builds a weighted directed ring of n nodes.
type ringGraph struct {
	n   int
	adj [][]roadnet.WeightedLink
}

func newRing(n int) *ringGraph {
	g := &ringGraph{n: n, adj: make([][]roadnet.WeightedLink, n)}
	for i := 0; i < n; i++ {
		g.adj[i] = []roadnet.WeightedLink{{To: (i + 1) % n, Weight: 1}}
	}
	return g
}

// newChordedRing is a ring whose nodes also link two ahead and one back, with
// unequal weights, so a node2vec walk meets all three of sampleNext's bias
// cases (return to prev, neighbour of prev, neither); the plain ring has one
// out-link a node and its walks never draw.
func newChordedRing(n int) *ringGraph {
	g := &ringGraph{n: n, adj: make([][]roadnet.WeightedLink, n)}
	for i := 0; i < n; i++ {
		g.adj[i] = []roadnet.WeightedLink{
			{To: (i + 1) % n, Weight: 1},
			{To: (i + 2) % n, Weight: 0.5},
			{To: (i + n - 1) % n, Weight: 0.25},
		}
	}
	return g
}

func (g *ringGraph) NumNodes() int                      { return g.n }
func (g *ringGraph) Links(u int) []roadnet.WeightedLink { return g.adj[u] }

func TestGenerateWalks(t *testing.T) {
	g := newRing(10)
	rng := rand.New(rand.NewSource(1))
	cfg := DefaultWalkConfig()
	cfg.WalksPerNode, cfg.WalkLength = 3, 8
	walks, err := GenerateWalks(g, cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(walks) != 30 {
		t.Fatalf("walks = %d, want 30", len(walks))
	}
	for _, w := range walks {
		if len(w) != 8 {
			t.Fatalf("walk length %d, want 8", len(w))
		}
		for i := 1; i < len(w); i++ {
			if w[i] != (w[i-1]+1)%10 {
				t.Fatalf("ring walk broke adjacency: %v", w)
			}
		}
	}
	// Validation errors.
	badCfg := cfg
	badCfg.WalkLength = 1
	if _, err := GenerateWalks(g, badCfg, rng); err == nil {
		t.Fatal("walk length 1 accepted")
	}
	badCfg = cfg
	badCfg.P = 0
	if _, err := GenerateWalks(g, badCfg, rng); err == nil {
		t.Fatal("p=0 accepted")
	}
}

func TestWalksRespectWeights(t *testing.T) {
	// Node 0 has a heavy link to 1 and a light link to 2; walks must favor 1.
	g := &ringGraph{n: 3, adj: [][]roadnet.WeightedLink{
		{{To: 1, Weight: 10}, {To: 2, Weight: 0.1}},
		{{To: 0, Weight: 1}},
		{{To: 0, Weight: 1}},
	}}
	rng := rand.New(rand.NewSource(2))
	cfg := WalkConfig{WalksPerNode: 200, WalkLength: 2, P: 1, Q: 1}
	walks, err := GenerateWalks(g, cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	to1, to2 := 0, 0
	for _, w := range walks {
		if w[0] != 0 {
			continue
		}
		switch w[1] {
		case 1:
			to1++
		case 2:
			to2++
		}
	}
	if to1 <= to2*5 {
		t.Fatalf("weights ignored: %d walks to heavy node, %d to light", to1, to2)
	}
}

func TestSkipGramNeighborsCloser(t *testing.T) {
	// On a ring, adjacent nodes must embed closer than antipodal nodes.
	g := newRing(20)
	rng := rand.New(rand.NewSource(3))
	vecs, err := Embed(g, DeepWalk, 8, rng)
	if err != nil {
		t.Fatal(err)
	}
	dist := func(a, b int) float64 {
		var s float64
		for k := 0; k < 8; k++ {
			d := vecs.Data[a*8+k] - vecs.Data[b*8+k]
			s += d * d
		}
		return math.Sqrt(s)
	}
	var near, far float64
	for i := 0; i < 20; i++ {
		near += dist(i, (i+1)%20)
		far += dist(i, (i+10)%20)
	}
	if near >= far {
		t.Fatalf("ring structure not captured: near=%.3f far=%.3f", near, far)
	}
}

func TestEmbedMethods(t *testing.T) {
	g := newRing(12)
	for _, m := range []Method{Node2Vec, DeepWalk, LINE} {
		rng := rand.New(rand.NewSource(4))
		vecs, err := Embed(g, m, 6, rng)
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if vecs.Shape[0] != 12 || vecs.Shape[1] != 6 {
			t.Fatalf("%s: shape %v", m, vecs.Shape)
		}
	}
	rng := rand.New(rand.NewSource(4))
	if _, err := Embed(g, Method("magic"), 6, rng); err == nil {
		t.Fatal("unknown method accepted")
	}
}

func TestTrainSkipGramValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	if _, err := TrainSkipGram(0, nil, DefaultSkipGramConfig(4), rng); err == nil {
		t.Fatal("zero nodes accepted")
	}
	if _, err := TrainSkipGram(3, [][]int{{0, 7}}, DefaultSkipGramConfig(4), rng); err == nil {
		t.Fatal("out-of-range walk node accepted")
	}
	bad := DefaultSkipGramConfig(4)
	bad.Epochs = 0
	if _, err := TrainSkipGram(3, [][]int{{0, 1}}, bad, rng); err == nil {
		t.Fatal("zero epochs accepted")
	}
}

func TestTemporalGraphStructure(t *testing.T) {
	s := timeslot.MustNew(time.Hour) // 24 slots/day, 168/week
	tg, err := BuildTemporalGraph(s, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if tg.NumNodes() != 168 {
		t.Fatalf("temporal graph nodes = %d, want 168", tg.NumNodes())
	}
	// Every node: one neighbor-slot edge and one neighbor-day edge.
	for i := 0; i < 168; i++ {
		links := tg.Links(i)
		if len(links) != 2 {
			t.Fatalf("node %d has %d links", i, len(links))
		}
		if links[0].To != (i+1)%168 || links[0].Weight != 1 {
			t.Fatalf("node %d neighbor-slot link %+v", i, links[0])
		}
		if links[1].To != (i+24)%168 || links[1].Weight != 2 {
			t.Fatalf("node %d neighbor-day link %+v", i, links[1])
		}
	}
	// Week wrap: Sunday's last slot points to Monday's first.
	last := tg.Links(167)
	if last[0].To != 0 {
		t.Fatal("week wrap broken for neighbor-slot edge")
	}
	if _, err := BuildTemporalGraph(s, 0, 1); err == nil {
		t.Fatal("zero slot weight accepted")
	}
}

func TestDayTemporalGraph(t *testing.T) {
	s := timeslot.MustNew(time.Hour)
	tg, err := BuildDayTemporalGraph(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	if tg.NumNodes() != 24 {
		t.Fatalf("day graph nodes = %d, want 24", tg.NumNodes())
	}
	if tg.Links(23)[0].To != 0 {
		t.Fatal("day wrap broken")
	}
	if _, err := BuildDayTemporalGraph(s, 0); err == nil {
		t.Fatal("zero weight accepted")
	}
}

func TestTemporalEmbeddingPeriodicity(t *testing.T) {
	// Embedding the weekly graph: the same hour on adjacent days should be
	// closer than random hours, thanks to the neighbor-day edges.
	s := timeslot.MustNew(2 * time.Hour) // 12 slots/day, 84/week
	tg, err := BuildTemporalGraph(s, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	vecs, err := Embed(tg, Node2Vec, 8, rng)
	if err != nil {
		t.Fatal(err)
	}
	dist := func(a, b int) float64 {
		var d float64
		for k := 0; k < 8; k++ {
			x := vecs.Data[a*8+k] - vecs.Data[b*8+k]
			d += x * x
		}
		return math.Sqrt(d)
	}
	var sameHour, offset float64
	for day := 0; day < 6; day++ {
		slot := day*12 + 6
		sameHour += dist(slot, slot+12)   // same hour next day
		offset += dist(slot, (slot+5)%84) // 10 hours away
	}
	if sameHour >= offset {
		t.Logf("warning: daily periodicity weak in embedding (same=%.3f offset=%.3f)", sameHour, offset)
	}
}
