package obs

import (
	"sync/atomic"
	"time"
)

// An Exemplar pins one concrete observation — its value, wall time and the
// trace that produced it — to a histogram bucket, so an operator staring at
// a latency spike on a dashboard can jump straight to a trace of a request
// that landed in the offending bucket. Each bucket keeps only its latest
// exemplar (last-write-wins through an atomic pointer), which is what
// OpenMetrics exposition wants and bounds memory at one pointer per bucket.
type Exemplar struct {
	TraceID string  `json:"trace_id"`
	Value   float64 `json:"value"`
	// Unix is the observation wall time in seconds since the epoch, with
	// fractional milliseconds — the timestamp form OpenMetrics exemplars
	// use on the wire.
	Unix float64 `json:"t"`
}

// exemplarsOn gates exemplar recording process-wide. Off (the default) the
// hot-path cost is one nil/flag check; nothing is ever stored. The flag is
// process-global rather than per-registry because the hook sites (Span.End,
// HTTP middleware) fire on every request and must stay branch-cheap.
var exemplarsOn atomic.Bool

// SetExemplars enables or disables exemplar recording process-wide.
// tteserve flips it on with -exemplars.
func SetExemplars(on bool) { exemplarsOn.Store(on) }

// recordExemplar stores the exemplar for v's bucket. Callers have already
// counted v via Observe and checked the enable flag.
func (h *Histogram) recordExemplar(v float64, id TraceID) {
	h.exemplars[h.bucketIdx(v)].Store(&Exemplar{
		TraceID: string(id),
		Value:   v,
		Unix:    float64(time.Now().UnixNano()) / 1e9,
	})
}

// Exemplars returns the latest exemplar per bucket, indexed like the counts
// returned by Buckets (+Inf last). Entries are nil for buckets that never
// recorded one. The returned pointers are immutable.
func (h *Histogram) Exemplars() []*Exemplar {
	out := make([]*Exemplar, len(h.exemplars))
	for i := range h.exemplars {
		out[i] = h.exemplars[i].Load()
	}
	return out
}
