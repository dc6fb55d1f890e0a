package obs

import (
	"runtime"
	"sync"
	"time"
)

// CollectRuntime samples Go process health into reg's gauges (nil uses the
// default registry) so /metrics shows process health next to request
// health:
//
//	tte_go_goroutines               live goroutines
//	tte_go_heap_alloc_bytes         live heap bytes
//	tte_go_heap_sys_bytes           heap bytes obtained from the OS
//	tte_go_heap_objects             live heap objects
//	tte_go_gc_runs_total            completed GC cycles
//	tte_go_gc_pause_seconds_total   cumulative stop-the-world pause time
//	tte_go_gc_last_pause_seconds    most recent GC pause
//
// ReadMemStats stops the world briefly (microseconds), so this is meant to
// run on a period (see StartSampler), not per request.
func CollectRuntime(reg *Registry) {
	if reg == nil {
		reg = Default()
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	reg.Gauge("tte_go_goroutines").Set(float64(runtime.NumGoroutine()))
	reg.Gauge("tte_go_heap_alloc_bytes").Set(float64(ms.HeapAlloc))
	reg.Gauge("tte_go_heap_sys_bytes").Set(float64(ms.HeapSys))
	reg.Gauge("tte_go_heap_objects").Set(float64(ms.HeapObjects))
	reg.Gauge("tte_go_gc_runs_total").Set(float64(ms.NumGC))
	reg.Gauge("tte_go_gc_pause_seconds_total").Set(float64(ms.PauseTotalNs) / 1e9)
	if ms.NumGC > 0 {
		last := ms.PauseNs[(ms.NumGC+255)%256]
		reg.Gauge("tte_go_gc_last_pause_seconds").Set(float64(last) / 1e9)
	}
}

// StartSampler is the process's one periodic sampler. Immediately and then
// every interval (default 10s), on one goroutine, it refreshes the runtime
// gauges (CollectRuntime), takes one Snapshot of reg (nil uses the default
// registry) and hands that snapshot and the tick's time to each observer in
// order. Every observer of a tick sees the same slice, so observers must
// treat it as read-only. stop is idempotent and returns only after the
// in-flight tick has finished: once it returns, no observer runs again.
func StartSampler(reg *Registry, interval time.Duration, observe ...func(now time.Time, samples []Sample)) (stop func()) {
	if reg == nil {
		reg = Default()
	}
	if interval <= 0 {
		interval = 10 * time.Second
	}
	reg.Help("tte_go_goroutines", "Live goroutines.")
	reg.Help("tte_go_heap_alloc_bytes", "Live heap bytes.")
	reg.Help("tte_go_gc_pause_seconds_total", "Cumulative GC stop-the-world pause seconds.")
	tick := func() {
		CollectRuntime(reg)
		now, samples := time.Now(), reg.Snapshot()
		for _, o := range observe {
			o(now, samples)
		}
	}
	done, exited := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(exited)
		t := time.NewTicker(interval)
		defer t.Stop()
		tick()
		for {
			select {
			case <-t.C:
				tick()
			case <-done:
				return
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() { close(done) })
		<-exited
	}
}
