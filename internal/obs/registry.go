package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry holds metric families keyed by name. Each family has one kind
// (counter, gauge or histogram) and any number of children distinguished
// by label values. Creation is mutex-guarded; mutation of the returned
// metrics is lock-free.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family

	// spanHists caches span name -> *Histogram for StartSpan (see spanHist).
	spanHists sync.Map
}

type family struct {
	name string
	kind string // "counter" | "gauge" | "histogram"
	help string

	mu       sync.RWMutex
	children map[string]any // label key -> *Counter | *Gauge | *Histogram
	labels   map[string][]string
}

// NewRegistry returns an empty registry. Most code should use Default().
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// Help sets the family's HELP text emitted in the exposition. It may be
// called before or after the family's first metric is created.
func (r *Registry) Help(name, help string) {
	f := r.family(name, "", nil)
	f.mu.Lock()
	f.help = help
	f.mu.Unlock()
}

// Counter returns the counter name{labels...}, creating it on first use.
// labels are alternating key, value pairs. Counter panics if name is
// already registered as a different kind or labels are malformed — both
// programmer errors.
func (r *Registry) Counter(name string, labels ...string) *Counter {
	return getOrCreate(r, name, "counter", labels, func() *Counter { return &Counter{} })
}

// Gauge returns the gauge name{labels...}, creating it on first use.
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	return getOrCreate(r, name, "gauge", labels, func() *Gauge { return &Gauge{} })
}

// Histogram returns the histogram name{labels...}, creating it on first
// use with the given bucket upper bounds (ascending; an implicit +Inf
// bucket is appended). Buckets are fixed at creation: later calls with
// the same identity return the existing histogram and ignore buckets.
func (r *Registry) Histogram(name string, buckets []float64, labels ...string) *Histogram {
	return getOrCreate(r, name, "histogram", labels, func() *Histogram { return newHistogram(buckets) })
}

func (r *Registry) family(name, kind string, _ []string) *family {
	r.mu.RLock()
	f := r.families[name]
	r.mu.RUnlock()
	if f == nil {
		r.mu.Lock()
		f = r.families[name]
		if f == nil {
			f = &family{name: name, kind: kind, children: make(map[string]any), labels: make(map[string][]string)}
			r.families[name] = f
		}
		r.mu.Unlock()
	}
	if kind != "" {
		f.mu.RLock()
		k := f.kind
		f.mu.RUnlock()
		if k == "" { // first metric of a family Help created: settle its kind
			f.mu.Lock()
			if f.kind == "" {
				f.kind = kind
			}
			k = f.kind
			f.mu.Unlock()
		}
		if k != kind {
			panic(fmt.Sprintf("obs: metric %q registered as %s, requested as %s", name, k, kind))
		}
	}
	return f
}

func getOrCreate[M any](r *Registry, name, kind string, labels []string, make func() M) M {
	if len(labels)%2 != 0 {
		panic(fmt.Sprintf("obs: metric %q: odd label list %q", name, labels))
	}
	key := labelKey(labels)
	f := r.family(name, kind, labels)
	f.mu.RLock()
	c, ok := f.children[key]
	f.mu.RUnlock()
	if !ok {
		f.mu.Lock()
		c, ok = f.children[key]
		if !ok {
			c = make()
			f.children[key] = c
			f.labels[key] = append([]string(nil), labels...)
		}
		f.mu.Unlock()
	}
	m, ok := c.(M)
	if !ok {
		// Unreachable unless family kinds were raced into inconsistency.
		panic(fmt.Sprintf("obs: metric %q{%s} has kind %T", name, key, c))
	}
	return m
}

// labelKey serializes label pairs into a canonical (sorted) identity.
func labelKey(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	pairs := make([]string, 0, len(labels)/2)
	for i := 0; i+1 < len(labels); i += 2 {
		pairs = append(pairs, labels[i]+"\x00"+labels[i+1])
	}
	sort.Strings(pairs)
	return strings.Join(pairs, "\x01")
}

// A Counter is a monotonically increasing uint64.
type Counter struct{ v atomic.Uint64 }

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// A Gauge is a float64 that can go up and down.
type Gauge struct{ bits atomic.Uint64 }

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds delta (which may be negative) to the gauge.
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Inc adds 1 and Dec subtracts 1.
func (g *Gauge) Inc() { g.Add(1) }
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// DefBuckets are the default duration buckets in seconds, spanning 100µs
// to 10s — wide enough for both per-record training forward passes and
// whole-request serving latencies.
var DefBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
	0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// A Histogram counts observations into fixed buckets and tracks their sum,
// like a Prometheus histogram. Observe is lock-free; a concurrent reader
// may see a bucket increment before the matching sum update, which the
// exposition format tolerates (scrapes are not atomic snapshots).
type Histogram struct {
	uppers  []float64 // ascending bucket upper bounds, excluding +Inf
	buckets []atomic.Uint64
	inf     atomic.Uint64
	count   atomic.Uint64
	sumBits atomic.Uint64
	// exemplars holds the latest exemplar per bucket (+Inf last), written
	// only when exemplar recording is enabled (see exemplar.go). One atomic
	// pointer per bucket: readers never block writers.
	exemplars []atomic.Pointer[Exemplar]
}

// NewHistogram returns a standalone histogram that is not registered in
// any registry. Use it for short-lived aggregation windows — the quality
// monitor keeps one per rotating window for abs-error quantiles — where
// registering every window would leak families; the registry path
// (Registry.Histogram) remains the way to expose a histogram on /metrics.
func NewHistogram(uppers []float64) *Histogram { return newHistogram(uppers) }

func newHistogram(uppers []float64) *Histogram {
	for i := 1; i < len(uppers); i++ {
		if uppers[i] <= uppers[i-1] {
			panic(fmt.Sprintf("obs: histogram buckets not ascending: %v", uppers))
		}
	}
	h := &Histogram{uppers: append([]float64(nil), uppers...)}
	h.buckets = make([]atomic.Uint64, len(h.uppers))
	h.exemplars = make([]atomic.Pointer[Exemplar], len(h.uppers)+1)
	return h
}

// bucketIdx returns the index of the bucket v falls into; len(uppers) is
// the +Inf bucket.
func (h *Histogram) bucketIdx(v float64) int {
	// Binary search for the first upper bound >= v.
	lo, hi := 0, len(h.uppers)
	for lo < hi {
		mid := (lo + hi) / 2
		if h.uppers[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if lo := h.bucketIdx(v); lo < len(h.uppers) {
		h.buckets[lo].Add(1)
	} else {
		h.inf.Add(1)
	}
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Buckets returns the bucket upper bounds and their non-cumulative counts;
// the final count is the +Inf bucket.
func (h *Histogram) Buckets() (uppers []float64, counts []uint64) {
	uppers = append([]float64(nil), h.uppers...)
	counts = make([]uint64, len(h.buckets)+1)
	for i := range h.buckets {
		counts[i] = h.buckets[i].Load()
	}
	counts[len(h.buckets)] = h.inf.Load()
	return uppers, counts
}

// Quantile estimates the q-quantile (0 < q < 1) by linear interpolation
// within the bucket containing it. Values in the +Inf bucket clamp to the
// largest finite bound. Returns NaN on an empty histogram.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 || math.IsNaN(q) {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var cum float64
	for i := range h.buckets {
		n := float64(h.buckets[i].Load())
		if cum+n >= rank && n > 0 {
			lower := 0.0
			if i > 0 {
				lower = h.uppers[i-1]
			}
			frac := (rank - cum) / n
			return lower + frac*(h.uppers[i]-lower)
		}
		cum += n
	}
	if len(h.uppers) == 0 {
		return math.NaN()
	}
	return h.uppers[len(h.uppers)-1]
}
