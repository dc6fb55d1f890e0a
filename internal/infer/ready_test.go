package infer

import (
	"context"
	"errors"
	"testing"
)

// TestReadinessLifecycle walks the /readyz contract: ready while a
// snapshot serves, not ready after a failed reload until the next
// successful Swap, and never ready once closed.
func TestReadinessLifecycle(t *testing.T) {
	e := newTestEngine(t, testConfig(t, constSnapshot("m1", 42)))

	ready, detail := e.Readiness()
	if !ready {
		t.Fatalf("fresh engine not ready: %v", detail)
	}
	if detail["model"] != "m1" || detail["queue_capacity"] != 64 {
		t.Fatalf("ready detail = %v", detail)
	}
	if _, ok := detail["queue_len"].(int); !ok {
		t.Fatalf("ready detail missing queue_len: %v", detail)
	}

	e.RecordReloadFailure(nil) // nil errors are ignored
	if ready, _ := e.Readiness(); !ready {
		t.Fatal("nil reload failure flipped readiness")
	}

	e.RecordReloadFailure(errors.New("checkpoint is corrupt"))
	ready, detail = e.Readiness()
	if ready {
		t.Fatal("engine ready despite failed reload")
	}
	if detail["reason"] != "last reload failed" || detail["last_reload_error"] != "checkpoint is corrupt" {
		t.Fatalf("failed-reload detail = %v", detail)
	}
	// The engine still serves during the failed-reload state: readiness
	// gates new traffic routing, not in-flight correctness.
	if r, err := e.Do(context.Background(), od(1, 1, 2, 2, 600)); err != nil || r.Seconds != 42 {
		t.Fatalf("Do during failed-reload state = %+v, %v", r, err)
	}

	if _, err := e.SwapCtx(context.Background(), constSnapshot("m2", 7)); err != nil {
		t.Fatal(err)
	}
	ready, detail = e.Readiness()
	if !ready || detail["model"] != "m2" {
		t.Fatalf("post-swap readiness = %v, %v", ready, detail)
	}

	e.Close()
	ready, detail = e.Readiness()
	if ready || detail["reason"] != "engine closed" {
		t.Fatalf("closed readiness = %v, %v", ready, detail)
	}
}
