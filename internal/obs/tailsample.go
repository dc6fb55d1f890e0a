package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// tailReasons names why an outcome was kept, in priority order; the index
// is TailSampler.kept's.
var tailReasons = [...]string{"error", "slow", "sample"}

// TailSampler is the one tail-sampling policy: the trace store and the
// flight recorder both decide retention through it. Every finished outcome
// is numbered and kept for the first reason that holds:
//
//   - "error": every errored outcome,
//   - "slow": the slowest-N durations per rotating window,
//   - "sample": a deterministic hash sample of the rest,
//
// and dropped otherwise. Sampling hashes the outcome's sequence number, so
// an identical stream keeps the same outcomes on every run. Safe for
// concurrent use.
type TailSampler struct {
	slowestN  int
	window    time.Duration
	threshold uint64 // sample when splitmix64(seq) <= threshold; 0 samples none
	now       func() time.Time

	seq  atomic.Uint64
	seen *Counter
	kept [len(tailReasons)]*Counter

	mu       sync.Mutex
	winStart time.Time
	winSlow  []time.Duration // the window's slow-ranked durations, ascending
}

// NewTailSampler builds the policy, counting every offered outcome in the
// counter family seen and every kept one in kept{reason}, both in reg.
// slowestN 0 means 16 and a negative value disables slow retention; window
// <= 0 means 10s; sampleRate is taken literally (0 keeps none, 1 keeps
// all); now is the window clock.
func NewTailSampler(reg *Registry, seen, kept string, slowestN int, window time.Duration, sampleRate float64, now func() time.Time) *TailSampler {
	if slowestN == 0 {
		slowestN = 16
	}
	if window <= 0 {
		window = 10 * time.Second
	}
	s := &TailSampler{
		slowestN:  slowestN,
		window:    window,
		threshold: sampleThreshold(sampleRate),
		now:       now,
		seen:      reg.Counter(seen),
	}
	for i, reason := range tailReasons {
		s.kept[i] = reg.Counter(kept, "reason", reason)
	}
	return s
}

// Offer numbers one finished outcome of duration d and returns its
// sequence number (from 1) with the reason it is kept, or "" when dropped.
func (s *TailSampler) Offer(errored bool, d time.Duration) (seq uint64, reason string) {
	s.seen.Inc()
	seq = s.seq.Add(1)
	// Every outcome feeds the slow window, so "slowest this window" means
	// slowest among all traffic, errors included.
	slow := s.slow(d)
	var i int
	switch {
	case errored:
		i = 0
	case slow:
		i = 1
	case s.threshold != 0 && splitmix64(seq) <= s.threshold:
		i = 2
	default:
		return seq, ""
	}
	s.kept[i].Inc()
	return seq, tailReasons[i]
}

// Seen returns how many outcomes were offered.
func (s *TailSampler) Seen() uint64 { return s.seen.Value() }

// Kept returns how many outcomes were kept, by reason.
func (s *TailSampler) Kept() (errors, slow, sample uint64) {
	return s.kept[0].Value(), s.kept[1].Value(), s.kept[2].Value()
}

// slow reports whether d ranks among the slowest-N durations seen in the
// current window, rotating the window as needed. While the window's set is
// not yet full any duration qualifies (the first arrivals are, by
// definition, the slowest seen so far); once full, d must beat the current
// minimum, which it then evicts.
func (s *TailSampler) slow(d time.Duration) bool {
	if s.slowestN <= 0 {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.now()
	if s.winStart.IsZero() || now.Sub(s.winStart) >= s.window {
		s.winStart = now
		s.winSlow = s.winSlow[:0]
	}
	i := sort.Search(len(s.winSlow), func(i int) bool { return s.winSlow[i] >= d })
	if len(s.winSlow) < s.slowestN {
		s.winSlow = append(s.winSlow, 0)
		copy(s.winSlow[i+1:], s.winSlow[i:])
		s.winSlow[i] = d
		return true
	}
	if i == 0 {
		return false // not slower than the current minimum
	}
	copy(s.winSlow[:i-1], s.winSlow[1:i]) // evict the minimum
	s.winSlow[i-1] = d
	return true
}

// splitmix64 is the deterministic sampling hash: cheap, stateless, and
// uniform over sequence numbers, so "sample 1%" keeps a stable pseudo-
// random 1% of the stream on every identical run.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// sampleThreshold converts a rate in [0,1] to a uint64 comparison bound.
func sampleThreshold(rate float64) uint64 {
	if rate <= 0 {
		return 0
	}
	if rate >= 1 {
		return math.MaxUint64
	}
	return uint64(rate * float64(math.MaxUint64))
}
