package obs

import "runtime"

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
// run once a scrape (internal/serve's /metrics calls it before rendering),
// not per request.
func CollectRuntime(reg *Registry) {
	if reg == nil {
		reg = Default()
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	reg.Help("tte_go_goroutines", "Live goroutines.")
	reg.Help("tte_go_heap_alloc_bytes", "Live heap bytes.")
	reg.Help("tte_go_gc_pause_seconds_total", "Cumulative GC stop-the-world pause seconds.")
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
