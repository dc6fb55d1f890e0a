package core

import (
	"fmt"
	"sync"
	"testing"

	"deepod/internal/dataset"
	"deepod/internal/traj"
)

func concurrencyMismatch(i int, got, want float64) error {
	return fmt.Errorf("trip %d: concurrent estimate %v != serial %v", i, got, want)
}

// TestEstimateConcurrentSafe asserts the inference path is goroutine-safe:
// many goroutines calling Estimate / EstimateBatchFused on one shared model
// must produce exactly the serial results, with no data races (run under
// -race; internal/infer's callers and worker pool depend on this). Safety
// rests on every call taking a private arena and treating parameters as
// read-only — this test pins that contract.
func TestEstimateConcurrentSafe(t *testing.T) {
	g, recs := testWorld(t, 80)
	split, err := dataset.ChronoSplit(recs, 6, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := tinyConfig()
	cfg.Epochs = 1
	m, err := New(cfg, g)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Train(split.Train, split.Valid, TrainOptions{}); err != nil {
		t.Fatal(err)
	}

	// Query set: every test trip, including ones carrying External features
	// (the generator attaches them), so the external encoder runs too.
	n := len(split.Test)
	if n == 0 {
		t.Fatal("no test trips")
	}
	want := make([]float64, n)
	for i := range split.Test {
		want[i] = m.Estimate(&split.Test[i].Matched)
	}

	const workers = 8
	const rounds = 4
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				// Each worker starts at a different offset so goroutines
				// overlap on different trips at any instant.
				for off := 0; off < n; off++ {
					i := (off + w*7) % n
					if got := m.Estimate(&split.Test[i].Matched); got != want[i] {
						select {
						case errCh <- concurrencyMismatch(i, got, want[i]):
						default:
						}
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
}

// TestEstimateBatchConcurrentSafe covers the batched entry point the same
// way: concurrent EstimateBatchFused calls over shared inputs must equal the
// serial per-trip results.
func TestEstimateBatchConcurrentSafe(t *testing.T) {
	g, recs := testWorld(t, 60)
	split, err := dataset.ChronoSplit(recs, 6, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := tinyConfig()
	cfg.Epochs = 1
	m, err := New(cfg, g)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Train(split.Train, split.Valid, TrainOptions{}); err != nil {
		t.Fatal(err)
	}

	ods := make([]traj.MatchedOD, len(split.Test))
	for i := range split.Test {
		ods[i] = split.Test[i].Matched
	}
	want := estimateEach(m, ods)

	const workers = 6
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 3; r++ {
				got := m.EstimateBatchFused(ods)
				for i := range got {
					if got[i] != want[i] {
						select {
						case errCh <- concurrencyMismatch(i, got[i], want[i]):
						default:
						}
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
}
