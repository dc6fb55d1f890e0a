package obs

import (
	"sync"
	"testing"
	"time"
)

func TestRuntimeStats(t *testing.T) {
	reg := NewRegistry()
	CollectRuntime(reg)
	if g := reg.Gauge("tte_go_goroutines").Value(); g < 1 {
		t.Fatalf("goroutines gauge = %v", g)
	}
	if g := reg.Gauge("tte_go_heap_alloc_bytes").Value(); g <= 0 {
		t.Fatalf("heap alloc gauge = %v", g)
	}
	stop := StartSampler(reg, time.Hour)
	stop()
	stop() // idempotent
}

// TestSamplerOneSnapshotPerTick: every observer of a tick receives that
// tick's time and the very same samples, with the runtime gauges already
// refreshed in them; stop blocks while a tick is in flight and, once it
// returns, no observer runs again.
func TestSamplerOneSnapshotPerTick(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("tte_test_total").Add(3)

	type seen struct {
		now     time.Time
		first   *Sample
		n       int
		runtime bool
	}
	var (
		mu       sync.Mutex
		got      [2][]seen
		finished bool
	)
	record := func(i int, now time.Time, samples []Sample) {
		s := seen{now: now, first: &samples[0], n: len(samples)}
		for _, sm := range samples {
			if sm.Name == "tte_go_goroutines" && sm.Value >= 1 {
				s.runtime = true
			}
		}
		mu.Lock()
		got[i] = append(got[i], s)
		mu.Unlock()
	}
	inTick, release := make(chan struct{}), make(chan struct{})
	stop := StartSampler(reg, time.Millisecond,
		func(now time.Time, samples []Sample) { record(0, now, samples) },
		func(now time.Time, samples []Sample) {
			record(1, now, samples)
			mu.Lock()
			n := len(got[1])
			mu.Unlock()
			if n == 3 {
				close(inTick)
				<-release
				mu.Lock()
				finished = true
				mu.Unlock()
			}
		},
	)

	select {
	case <-inTick:
	case <-time.After(5 * time.Second):
		t.Fatal("the sampler never reached its third tick")
	}
	stopped := make(chan struct{})
	go func() {
		stop()
		close(stopped)
	}()
	select {
	case <-stopped:
		t.Fatal("stop returned while a tick was in flight")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	select {
	case <-stopped:
	case <-time.After(5 * time.Second):
		t.Fatal("stop did not return after the tick finished")
	}
	mu.Lock()
	if !finished {
		t.Error("stop returned before the last tick finished")
	}
	ticks := len(got[0])
	mu.Unlock()

	time.Sleep(10 * time.Millisecond) // ten intervals: none may tick now
	stop()                            // idempotent
	mu.Lock()
	defer mu.Unlock()
	if len(got[0]) != ticks || len(got[1]) != ticks {
		t.Fatalf("observers ran after stop: %d and %d ticks, stop saw %d", len(got[0]), len(got[1]), ticks)
	}
	if ticks < 3 {
		t.Fatalf("%d ticks, want at least 3", ticks)
	}
	for i := 0; i < ticks; i++ {
		a, b := got[0][i], got[1][i]
		if !a.now.Equal(b.now) || a.first != b.first || a.n != b.n {
			t.Errorf("tick %d: observers saw different snapshots: %+v vs %+v", i, a, b)
		}
		if !a.runtime {
			t.Errorf("tick %d: runtime gauges missing from the snapshot", i)
		}
		if i > 0 && !a.now.After(got[0][i-1].now) {
			t.Errorf("tick %d: time %v not after tick %d's %v", i, a.now, i-1, got[0][i-1].now)
		}
	}
}
