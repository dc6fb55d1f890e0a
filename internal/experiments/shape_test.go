package experiments

import (
	"math"
	"testing"
)

// TestReproductionShape asserts the comparison shape that survives the
// reduction from the paper's data scale (millions of trips, GPU-days) to
// laptop scale (thousands of trips, seconds per model):
//
//   - the network-aware deep models (DeepOD and its N-st ablation) sit on
//     the accuracy frontier — within 10% of the best method overall;
//   - DeepOD clearly beats the weak baselines (LR, TEMP);
//   - every nonlinear method beats LR (the paper's finding 1 for Table 4);
//   - MURAT (network embeddings) beats LR and TEMP.
//
// Orderings *among* the strong methods (DeepOD vs GBM vs STNN vs MURAT) are
// within single-seed noise at this scale and are reported, not asserted;
// EXPERIMENTS.md discusses which of the paper's fine-grained orderings
// reproduce.
//
// The run's Table 2 and Table 4, rendered, must equal the same blocks of
// testdata/shape.golden, the record EXPERIMENTS.md quotes: a change that
// moves a trained bit fails here until the record is made again (`make
// experiments`). Skip with -short.
func TestReproductionShape(t *testing.T) {
	if testing.Short() {
		t.Skip("shape test skipped in -short mode")
	}
	s := NewSuite(ShapeScale())
	stats, err := RunTable2(s)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := RunTable4(s)
	if err != nil {
		t.Fatal(err)
	}
	record := readLines(t, shapeRecord)
	for _, tc := range []struct {
		title, text string
	}{
		{"Table 2:", renderTable2(s.Scale.Name, stats)},
		{"Table 4:", renderTable4(s.Scale.Name, rows)},
	} {
		if diff := firstDiff(trimLines(tc.text), recordBlock(t, record, tc.title)); diff != "" {
			t.Errorf("%s differs from %s (run `make experiments` if a trained bit moved on purpose) at %s", tc.title, shapeRecord, diff)
		}
	}

	methods := []string{"TEMP", "LR", "GBM", "STNN", "MURAT", "DeepOD", "N-st"}
	mape := map[string]float64{}
	best := math.Inf(1)
	for _, method := range methods {
		r := where(rows, cell{city: "chengdu-s", method: method, metric: "mape"})
		if len(r) != 1 {
			t.Fatalf("%s: %d MAPE rows on chengdu-s, want 1", method, len(r))
		}
		mape[method] = r[0].Value
		if mape[method] < best {
			best = mape[method]
		}
		t.Logf("%-8s MAPE = %.2f%%", method, mape[method]*100)
	}

	mustBeat := func(winner, loser string, margin float64) {
		t.Helper()
		if mape[winner] >= mape[loser]*(1-margin) {
			t.Errorf("%s (%.2f%%) should beat %s (%.2f%%) by >%.0f%%",
				winner, mape[winner]*100, loser, mape[loser]*100, margin*100)
		}
	}
	// Robust orderings from the paper's Table 4.
	mustBeat("DeepOD", "LR", 0.25)
	mustBeat("DeepOD", "TEMP", 0.10)
	mustBeat("GBM", "LR", 0.20)
	mustBeat("STNN", "LR", 0.20)
	mustBeat("MURAT", "LR", 0.20)
	mustBeat("MURAT", "TEMP", 0.0)

	// DeepOD must sit on the accuracy frontier.
	if mape["DeepOD"] > best*1.10 {
		t.Errorf("DeepOD (%.2f%%) is more than 10%% behind the best method (%.2f%%)",
			mape["DeepOD"]*100, best*100)
	}
	// The trajectory machinery must not derail the model: full DeepOD stays
	// within noise of its own N-st ablation (the binding's net benefit
	// needs paper-scale data — DESIGN.md §4, EXPERIMENTS.md).
	if mape["DeepOD"] > mape["N-st"]*1.10 {
		t.Errorf("DeepOD (%.2f%%) is far behind its own ablation N-st (%.2f%%)",
			mape["DeepOD"]*100, mape["N-st"]*100)
	}
}
