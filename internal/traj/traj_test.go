package traj

import (
	"math"
	"testing"

	"deepod/internal/geo"
	"deepod/internal/roadnet"
)

// lineGraph builds a 3-vertex path network 0→1→2 with both edges 100 m.
func lineGraph(t *testing.T) *roadnet.Graph {
	t.Helper()
	g, err := roadnet.NewGraph(
		[]roadnet.Vertex{
			{ID: 0, Pos: geo.Point{X: 0}},
			{ID: 1, Pos: geo.Point{X: 100}},
			{ID: 2, Pos: geo.Point{X: 200}},
		},
		[]roadnet.Edge{
			{ID: 0, From: 0, To: 1, Length: 100, FreeSpeed: 10},
			{ID: 1, From: 1, To: 2, Length: 100, FreeSpeed: 10},
		})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func validTraj() Trajectory {
	return Trajectory{
		Path: []Step{
			{Edge: 0, Enter: 0, Exit: 8},
			{Edge: 1, Enter: 8, Exit: 20},
		},
		RStart: 0.25,
		REnd:   0.4,
	}
}

func TestTrajectoryValidate(t *testing.T) {
	g := lineGraph(t)
	tr := validTraj()
	if err := tr.Validate(g); err != nil {
		t.Fatal(err)
	}

	bad := validTraj()
	bad.Path = nil
	if err := bad.Validate(g); err == nil {
		t.Fatal("empty path accepted")
	}
	bad = validTraj()
	bad.RStart = 1.5
	if err := bad.Validate(g); err == nil {
		t.Fatal("ratio > 1 accepted")
	}
	bad = validTraj()
	bad.Path[1].Exit = 5 // exit before enter
	if err := bad.Validate(g); err == nil {
		t.Fatal("reversed interval accepted")
	}
	bad = validTraj()
	bad.Path[1].Enter = 4 // overlaps step 0
	if err := bad.Validate(g); err == nil {
		t.Fatal("overlapping intervals accepted")
	}
	bad = validTraj()
	bad.Path[1].Edge = 0 // disconnected (0→1 then 0→1)
	if err := bad.Validate(g); err == nil {
		t.Fatal("disconnected path accepted")
	}
}

func TestTrajectoryAccessors(t *testing.T) {
	g := lineGraph(t)
	tr := validTraj()
	if d := tr.DepartureTime(); d != 0 {
		t.Fatalf("DepartureTime = %v", d)
	}
	es := tr.Edges()
	if len(es) != 2 || es[0] != 0 || es[1] != 1 {
		t.Fatalf("Edges = %v", es)
	}
	// Length: (1-0.25)*100 + (1-0.4)*100 = 75 + 60 = 135.
	if l := tr.Length(g); math.Abs(l-135) > 1e-9 {
		t.Fatalf("Length = %v, want 135", l)
	}
}

func TestSingleEdgeTrajectoryLength(t *testing.T) {
	g := lineGraph(t)
	tr := Trajectory{
		Path:   []Step{{Edge: 0, Enter: 0, Exit: 5}},
		RStart: 0.2,
		REnd:   0.3,
	}
	if err := tr.Validate(g); err != nil {
		t.Fatal(err)
	}
	// Origin at 0.2, destination at 1-0.3=0.7 → 50 m.
	if l := tr.Length(g); math.Abs(l-50) > 1e-9 {
		t.Fatalf("single-edge Length = %v, want 50", l)
	}
}
