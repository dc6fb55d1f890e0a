package obs

import (
	"fmt"
	"sync"
	"testing"
)

// TestRegistryRegisterWhileSnapshot races brand-new family and child
// registration against Snapshot readers. This is exactly a scrape's
// access pattern: /metrics calls Snapshot at any moment while request
// goroutines are still minting new (name, labels)
// identities — first requests on a cold route, a hot-reload registering
// fresh families — so creation must never tear a snapshot. Run under -race
// (scripts/check.sh does).
func TestRegistryRegisterWhileSnapshot(t *testing.T) {
	r := NewRegistry()
	const (
		writers  = 4
		families = 40
		children = 8
	)

	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for f := 0; f < families; f++ {
				// Distinct names per writer: every iteration registers a
				// family Snapshot has never seen.
				name := fmt.Sprintf("race_w%d_f%d_total", w, f)
				for c := 0; c < children; c++ {
					r.Counter(name, "child", fmt.Sprint(c)).Add(1)
				}
				r.Gauge(fmt.Sprintf("race_w%d_f%d", w, f)).Set(float64(f))
				h := r.Histogram(fmt.Sprintf("race_w%d_f%d_seconds", w, f), []float64{0.1, 1})
				h.Observe(0.5)
				h.recordExemplar(0.5, "0123456789abcdef")
				r.Help(name, "registered mid-snapshot")
			}
		}(w)
	}

	var readers sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 3; w++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, s := range r.Snapshot() {
					if s.Name == "" {
						t.Error("snapshot produced a nameless sample")
						return
					}
				}
			}
		}()
	}

	close(start)
	wg.Wait()
	close(stop)
	readers.Wait()

	// After the dust settles every family registered must be visible.
	got := make(map[string]bool)
	for _, s := range r.Snapshot() {
		got[s.Name] = true
	}
	for w := 0; w < writers; w++ {
		for f := 0; f < families; f++ {
			name := fmt.Sprintf("race_w%d_f%d_total", w, f)
			if !got[name] {
				t.Fatalf("family %s missing from final snapshot", name)
			}
		}
	}
}
