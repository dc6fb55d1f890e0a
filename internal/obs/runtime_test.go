package obs

import "testing"

func TestRuntimeStats(t *testing.T) {
	reg := NewRegistry()
	CollectRuntime(reg)
	if g := reg.Gauge("tte_go_goroutines").Value(); g < 1 {
		t.Fatalf("goroutines gauge = %v", g)
	}
	if g := reg.Gauge("tte_go_heap_alloc_bytes").Value(); g <= 0 {
		t.Fatalf("heap alloc gauge = %v", g)
	}
}
