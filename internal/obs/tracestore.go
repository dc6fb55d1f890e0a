package obs

import (
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"
)

// TraceStoreConfig configures tail sampling and retention.
type TraceStoreConfig struct {
	// Capacity is the ring-buffer size: how many retained traces are kept
	// before the oldest is overwritten. Default 512.
	Capacity int
	// SlowestN traces per Window are always retained regardless of the
	// sample rate — the tail-latency diagnosis set. Default 16; set
	// negative to disable slow retention.
	SlowestN int
	// Window is the rotation period for the slowest-N set. Default 10s.
	Window time.Duration
	// SampleRate is the probability a normal (non-error, non-slow) trace
	// is retained. Taken literally: 0 keeps none, 1 keeps all. Sampling is
	// a deterministic hash of the trace's sequence number.
	SampleRate float64
	// Now overrides the clock for window rotation (tests).
	Now func() time.Time
}

// TraceStore retains finished traces under the TailSampler policy (every
// error, the slowest N per window, a hash sample of the rest) in a
// fixed-size ring buffer, so memory is bounded no matter the request rate.
// GET /debug/traces (see Handler) serves the retained set as JSON for
// diagnosis without an external collector.
type TraceStore struct {
	tail *TailSampler

	mu          sync.Mutex
	ring        *Ring[*TraceRecord]
	overwritten int // retained traces the ring has since evicted
}

// NewTraceStore builds a store registering its counters in reg (nil uses
// the default registry).
func NewTraceStore(reg *Registry, cfg TraceStoreConfig) *TraceStore {
	if reg == nil {
		reg = Default()
	}
	if cfg.Capacity <= 0 {
		cfg.Capacity = 512
	}
	now := cfg.Now
	if now == nil {
		now = time.Now
	}
	reg.Help("tte_trace_completed_total", "Traces finished, whether retained or not.")
	reg.Help("tte_trace_retained_total", "Traces retained by tail sampling, by reason.")
	return &TraceStore{
		tail: NewTailSampler(reg, "tte_trace_completed_total", "tte_trace_retained_total",
			cfg.SlowestN, cfg.Window, cfg.SampleRate, now),
		ring: NewRing[*TraceRecord](cfg.Capacity),
	}
}

// Offer submits a finished trace of duration d for retention and reports
// whether (and why) it was kept. Reasons are checked in priority order:
// "error" beats "slow" beats "sample".
func (ts *TraceStore) Offer(t *Trace, d time.Duration) (kept bool, reason string) {
	if ts == nil || t == nil {
		return false, ""
	}
	if _, reason = ts.tail.Offer(t.Errored(), d); reason == "" {
		return false, ""
	}
	rec := t.snapshot(d, reason)
	ts.mu.Lock()
	if ts.ring.Push(rec) {
		ts.overwritten++
	}
	ts.mu.Unlock()
	return true, reason
}

// TraceFilter selects retained traces; zero values mean "no constraint".
type TraceFilter struct {
	// TraceID selects one specific trace — the lookup exemplar trace IDs
	// from /metrics resolve through.
	TraceID   string
	Route     string
	MinDur    time.Duration
	ErrorOnly bool
	Limit     int
}

// Traces returns retained traces newest-first, filtered. Records are
// immutable; callers may hold them without copying.
func (ts *TraceStore) Traces(f TraceFilter) []*TraceRecord {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	minMS := float64(f.MinDur) / float64(time.Millisecond)
	out := make([]*TraceRecord, 0, ts.ring.Len())
	for i := ts.ring.Len() - 1; i >= 0; i-- {
		rec := ts.ring.At(i)
		if f.TraceID != "" && rec.TraceID != f.TraceID {
			continue
		}
		if f.Route != "" && rec.Route != f.Route {
			continue
		}
		if f.MinDur > 0 && rec.DurationMS < minMS {
			continue
		}
		if f.ErrorOnly && !rec.Error {
			continue
		}
		out = append(out, rec)
		if f.Limit > 0 && len(out) >= f.Limit {
			break
		}
	}
	return out
}

// Handler serves the retained traces as JSON:
//
//	GET /debug/traces?route=/estimate&minDur=50ms&errors=1&limit=20
//	GET /debug/traces?trace=<id>
//
// minDur accepts a Go duration ("50ms", "1.5s") or a bare number of
// milliseconds. errors=1 keeps only error traces. trace= looks up one
// trace by ID — the link exemplar trace IDs resolve through. Traces are
// returned newest-first.
func (ts *TraceStore) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet && r.Method != http.MethodHead {
			w.Header().Set("Allow", "GET, HEAD")
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		q := r.URL.Query()
		f := TraceFilter{TraceID: q.Get("trace"), Route: q.Get("route")}
		if v := q.Get("minDur"); v != "" {
			d, err := parseDur(v)
			if err != nil {
				http.Error(w, "bad minDur: "+err.Error(), http.StatusBadRequest)
				return
			}
			f.MinDur = d
		}
		if v := q.Get("errors"); v == "1" || strings.EqualFold(v, "true") {
			f.ErrorOnly = true
		}
		if v := q.Get("limit"); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 {
				http.Error(w, "bad limit", http.StatusBadRequest)
				return
			}
			f.Limit = n
		}
		recs := ts.Traces(f)
		// The envelope answers "how much am I not seeing" before anyone
		// reads a trace: total_seen is every finished trace offered,
		// dropped the ones tail sampling let go, overwritten the retained
		// ones the ring has since evicted.
		// Kept before seen: an outcome is counted seen before it is kept,
		// so dropped cannot go negative under concurrent offers.
		kErr, kSlow, kSample := ts.tail.Kept()
		retained := kErr + kSlow + kSample
		seen := ts.tail.Seen()
		ts.mu.Lock()
		overwritten := ts.overwritten
		ts.mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(map[string]any{
			"count":       len(recs),
			"completed":   seen,
			"total_seen":  seen,
			"retained":    retained,
			"dropped":     seen - retained,
			"overwritten": overwritten,
			"traces":      recs,
		})
	})
}

// parseDur reads a duration: time.ParseDuration syntax, with a bare number
// treated as milliseconds ("minDur=50" == "minDur=50ms").
func parseDur(s string) (time.Duration, error) {
	if ms, err := strconv.ParseFloat(s, 64); err == nil {
		return time.Duration(ms * float64(time.Millisecond)), nil
	}
	return time.ParseDuration(s)
}
