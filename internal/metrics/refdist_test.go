package metrics

import (
	"bytes"
	"encoding/gob"
	"math"
	"testing"
)

func TestRefDistBinning(t *testing.T) {
	d := NewRefDist([]float64{10, 20, 30})
	for _, tc := range []struct {
		v   float64
		bin int
	}{
		{-5, 0}, {0, 0}, {10, 0}, {10.001, 1}, {20, 1}, {25, 2}, {30, 2}, {31, 3}, {1e9, 3},
	} {
		if got := d.Bin(tc.v); got != tc.bin {
			t.Fatalf("Bin(%v) = %d, want %d", tc.v, got, tc.bin)
		}
	}
	for _, v := range []float64{1, 11, 12, 25, 100} {
		d.Observe(v)
	}
	if d.Total() != 5 {
		t.Fatalf("Total = %d, want 5", d.Total())
	}
	want := []uint64{1, 2, 1, 1}
	for i, c := range d.Counts {
		if c != want[i] {
			t.Fatalf("Counts = %v, want %v", d.Counts, want)
		}
	}
	probs := d.Probs()
	if math.Abs(probs[1]-0.4) > 1e-12 {
		t.Fatalf("Probs = %v, want bin 1 = 0.4", probs)
	}
}

func TestRefDistValidate(t *testing.T) {
	good := NewRefDist(nil)
	for _, v := range []float64{1, 2, 3} {
		good.Observe(v)
	}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid dist rejected: %v", err)
	}
	bad := []*RefDist{
		{},
		{Uppers: []float64{2, 1}, Counts: make([]uint64, 3)},
		{Uppers: []float64{1, 2}, Counts: make([]uint64, 2)},
	}
	for i, d := range bad {
		if err := d.Validate(); err == nil {
			t.Fatalf("bad dist %d accepted", i)
		}
	}
}

// The checkpoint round-trip: RefDist travels through encoding/gob intact
// (it is embedded in core's saved model).
func TestRefDistGobRoundTrip(t *testing.T) {
	d := NewRefDist([]float64{5, 10, 50})
	for _, v := range []float64{3, 7, 15, 40, 400} {
		d.Observe(v)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(d); err != nil {
		t.Fatal(err)
	}
	var back RefDist
	if err := gob.NewDecoder(&buf).Decode(&back); err != nil {
		t.Fatal(err)
	}
	if len(back.Uppers) != 3 || back.Total() != 5 {
		t.Fatalf("round-trip = %+v, want the original 3-bound, 5-sample dist", back)
	}
	for i := range d.Counts {
		if d.Counts[i] != back.Counts[i] {
			t.Fatalf("counts diverged: %v vs %v", d.Counts, back.Counts)
		}
	}
}

func TestPSI(t *testing.T) {
	ref := []float64{0.25, 0.25, 0.25, 0.25}
	if got := PSI(ref, ref); got > 1e-12 {
		t.Fatalf("PSI(ref, ref) = %v, want ~0", got)
	}
	// A mild shift stays under the conventional 0.1 "stable" bound; a
	// hard swap of the mass blows far past 0.25.
	mild := []float64{0.28, 0.24, 0.24, 0.24}
	if got := PSI(ref, mild); got <= 0 || got >= 0.1 {
		t.Fatalf("mild-shift PSI = %v, want (0, 0.1)", got)
	}
	hard := []float64{0.01, 0.01, 0.01, 0.97}
	if got := PSI(ref, hard); got < 0.25 {
		t.Fatalf("hard-shift PSI = %v, want >= 0.25", got)
	}
	// Unnormalized inputs (raw counts) are normalized internally.
	if got := PSI([]float64{25, 25, 25, 25}, []float64{28, 24, 24, 24}); got <= 0 || got >= 0.1 {
		t.Fatalf("raw-count PSI = %v, want (0, 0.1)", got)
	}
	// Empty bins are smoothed, not ±Inf.
	if got := PSI(ref, []float64{0, 0, 0, 1}); math.IsInf(got, 0) || math.IsNaN(got) {
		t.Fatalf("empty-bin PSI = %v, want finite", got)
	}
	// No samples at all: nothing to compare.
	if got := PSI(ref, []float64{0, 0, 0, 0}); !math.IsNaN(got) {
		t.Fatalf("zero-mass PSI = %v, want NaN", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched-bin PSI did not panic")
		}
	}()
	PSI([]float64{1}, []float64{1, 2})
}
