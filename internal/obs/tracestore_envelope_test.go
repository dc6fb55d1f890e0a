package obs

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestTraceStoreHandlerDropAccounting: the /debug/traces envelope must say
// how much the reader is NOT seeing — traces tail sampling dropped and
// retained traces the ring has since overwritten — so an empty-looking
// trace list under load reads as "sampled away", not "no traffic".
func TestTraceStoreHandlerDropAccounting(t *testing.T) {
	ts := NewTraceStore(NewRegistry(), TraceStoreConfig{
		Capacity: 4, SlowestN: -1, SampleRate: 1,
	})
	// 10 offered at rate 1 → 10 retained into a 4-slot ring → 6 overwritten.
	for i := 0; i < 10; i++ {
		_, tr := StartTrace(context.Background(), NewTraceID(), "/estimate")
		ts.Offer(tr, time.Millisecond)
	}
	// Sampling off: the next 5 complete but are dropped.
	ts.tail.threshold = 0
	for i := 0; i < 5; i++ {
		_, tr := StartTrace(context.Background(), NewTraceID(), "/estimate")
		ts.Offer(tr, time.Millisecond)
	}

	rec := httptest.NewRecorder()
	ts.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/traces", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /debug/traces = %d", rec.Code)
	}
	var body struct {
		Count       int    `json:"count"`
		TotalSeen   uint64 `json:"total_seen"`
		Retained    uint64 `json:"retained"`
		Dropped     uint64 `json:"dropped"`
		Overwritten int    `json:"overwritten"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("bad JSON %q: %v", rec.Body, err)
	}
	if body.TotalSeen != 15 || body.Retained != 10 || body.Dropped != 5 {
		t.Fatalf("envelope = %+v, want total_seen 15 / retained 10 / dropped 5", body)
	}
	if body.Overwritten != 6 || body.Count != 4 {
		t.Fatalf("envelope = %+v, want overwritten 6 with 4 listed", body)
	}
	// Legacy field stays for existing dashboards.
	if !strings.Contains(rec.Body.String(), `"completed"`) {
		t.Fatal("completed field dropped from the envelope")
	}
}
