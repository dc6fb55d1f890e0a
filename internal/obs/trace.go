package obs

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"sync"
	"time"
)

// TraceID identifies one request's span tree end-to-end. Generated IDs are
// 16 lowercase hex digits; client-supplied IDs (X-Trace-Id) are accepted
// as-is when they pass ParseTraceID.
type TraceID string

// NewTraceID returns a random 16-hex-digit trace ID.
func NewTraceID() TraceID {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand does not fail on supported platforms; if it ever
		// does, a time-derived ID keeps requests traceable rather than
		// failing the request path over an ID.
		binary.BigEndian.PutUint64(b[:], uint64(time.Now().UnixNano()))
	}
	return TraceID(hex.EncodeToString(b[:]))
}

// ParseTraceID validates a client-supplied trace ID: 1..64 characters from
// [0-9A-Za-z_-]. Anything else (empty, oversized, control characters that
// could pollute logs or headers) is rejected and the caller should mint a
// fresh ID with NewTraceID.
func ParseTraceID(s string) (TraceID, bool) {
	if len(s) == 0 || len(s) > 64 {
		return "", false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= '0' && c <= '9':
		case c >= 'a' && c <= 'z':
		case c >= 'A' && c <= 'Z':
		case c == '_' || c == '-':
		default:
			return "", false
		}
	}
	return TraceID(s), true
}

// Attr is one typed span attribute. Values are JSON-native scalars set via
// the Span.Set* helpers (int, float64, bool, string).
type Attr struct {
	Key   string `json:"key"`
	Value any    `json:"value"`
}

// maxTraceSpans caps how many spans one trace records, so a pathological
// request (say, thousands of Estimate calls under one trace) cannot balloon
// a single trace record. Spans past the cap still feed their histograms;
// they just aren't attached to the tree, and the drop is counted on the
// trace.
const maxTraceSpans = 512

type traceCtxKey struct{}

// Trace collects the spans of one request into a tree. It is created by
// StartTrace (normally from the HTTP middleware), carried in the context,
// and handed to a TraceStore when the request finishes. All methods are
// safe for concurrent use: engine workers and the request goroutine append
// spans to the same trace.
type Trace struct {
	id    TraceID
	route string
	start time.Time

	mu      sync.Mutex
	spans   []*tracedSpan
	dropped int
	err     bool
}

// StartTrace begins a trace for one request and returns a context carrying
// it. An empty id mints a fresh one. Spans started under the returned
// context (directly or via child contexts) are recorded into the trace.
func StartTrace(ctx context.Context, id TraceID, route string) (context.Context, *Trace) {
	if id == "" {
		id = NewTraceID()
	}
	if ctx == nil {
		ctx = context.Background()
	}
	t := &Trace{id: id, route: route, start: time.Now()}
	return context.WithValue(ctx, traceCtxKey{}, t), t
}

// TraceFrom returns the trace carried by ctx, or nil.
func TraceFrom(ctx context.Context) *Trace {
	if ctx == nil {
		return nil
	}
	t, _ := ctx.Value(traceCtxKey{}).(*Trace)
	return t
}

// TraceIDFrom returns the trace ID carried by ctx, or "" when untraced.
func TraceIDFrom(ctx context.Context) TraceID {
	if t := TraceFrom(ctx); t != nil {
		return t.id
	}
	return ""
}

// register attaches s to the trace, recording its parent by index. Called
// by StartSpan before the span escapes to other goroutines, so the span's
// tr/index fields are published by the StartSpan return.
func (t *Trace) register(s, parent *tracedSpan) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxTraceSpans {
		t.dropped++
		return
	}
	s.tr = t
	s.index = len(t.spans)
	if parent != nil && parent.tr == t {
		s.parentIdx = parent.index
	}
	t.spans = append(t.spans, s)
}

// noteError marks the whole trace errored (tail sampling retains it).
func (t *Trace) noteError() {
	t.mu.Lock()
	t.err = true
	t.mu.Unlock()
}

// Errored reports whether any span in the trace failed.
func (t *Trace) Errored() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

// snapshot freezes the trace into an immutable TraceRecord for the store.
func (t *Trace) snapshot(d time.Duration, reason string) *TraceRecord {
	t.mu.Lock()
	spans := make([]*tracedSpan, len(t.spans))
	copy(spans, t.spans)
	dropped := t.dropped
	isErr := t.err
	t.mu.Unlock()

	rec := &TraceRecord{
		TraceID:      string(t.id),
		Route:        t.route,
		Start:        t.start,
		DurationMS:   float64(d) / float64(time.Millisecond),
		Error:        isErr,
		Retained:     reason,
		SpansDropped: dropped,
		Spans:        make([]SpanRecord, len(spans)),
	}
	base := t.start.Sub(clockBase)
	for i, s := range spans {
		s.mu.Lock()
		sr := SpanRecord{
			Name:       s.name,
			Parent:     s.parentIdx,
			StartUS:    (s.start - base).Microseconds(),
			DurationUS: s.dur.Microseconds(),
			Error:      s.errMsg,
		}
		if len(s.attrs) > 0 {
			sr.Attrs = make([]Attr, len(s.attrs))
			copy(sr.Attrs, s.attrs)
		}
		s.mu.Unlock()
		rec.Spans[i] = sr
	}
	return rec
}

// TraceRecord is the immutable, JSON-serialisable form of a finished trace
// as served by GET /debug/traces.
type TraceRecord struct {
	TraceID      string       `json:"trace_id"`
	Route        string       `json:"route"`
	Start        time.Time    `json:"start"`
	DurationMS   float64      `json:"duration_ms"`
	Error        bool         `json:"error"`
	Retained     string       `json:"retained"` // "error" | "slow" | "sample"
	SpansDropped int          `json:"spans_dropped,omitempty"`
	Spans        []SpanRecord `json:"spans"`
}

// SpanRecord is one span in a TraceRecord. Parent is the index of the
// parent span within the record's Spans slice, -1 for the root.
type SpanRecord struct {
	Name       string `json:"name"`
	Parent     int    `json:"parent"`
	StartUS    int64  `json:"start_us"`
	DurationUS int64  `json:"duration_us"`
	Attrs      []Attr `json:"attrs,omitempty"`
	Error      string `json:"error,omitempty"`
}
