package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the ceil nearest-rank q-quantile of an ascending
// slice (0 for an empty one): the smallest value with at least q of the
// sample at or below it, so p99 is never biased low on short samples.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// median returns the middle value of vs (mean of the two middle values for
// an even count), leaving vs untouched.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile by the exclusive method,
// the one Python's statistics.quantiles(values, n=4) uses and therefore
// the one the acceptance check applies. It needs at least two values.
func quartiles(vs []float64) (q1, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(k int) float64 {
		// Position k*(n+1)/4 on a 1-based axis, clamped to the sample.
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(k*(n+1))/4 - float64(j)
		return s[j-1] + delta*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

// sample is one completed operation as its client saw it: when it ended,
// relative to the start of the measured window, how long it took, and how
// many units of work it completed (one, except a probe body, which counts
// the probes the server accepted).
type sample struct {
	end   time.Duration
	lat   time.Duration
	units int
}

// phaseStats summarises one operation kind over one measured window.
type phaseStats struct {
	attempted int
	failed    int
	// rate is units of work completed per second of the program's own time
	// over the whole window (see avail.own): every operation counts, the slow
	// ones and the pauses between them included. meanMs is the mean latency
	// over every operation, in the program's own time. These two are the
	// end-to-end numbers.
	rate   float64
	meanMs float64
	// rawRate and rawMeanMs are the same two by the wall clock alone; p50ms
	// and p99ms are over every sample in the window, by the wall clock.
	rawRate   float64
	rawMeanMs float64
	p50ms     float64
	p99ms     float64
	// sliceIQRPct is the distance between the quartiles of the wall-clock
	// rates of the window's slices as a percentage of their median: how
	// unsteady the window was.
	sliceIQRPct float64
}

// sliceLength is the width of one slice of a measured window.
const sliceLength = 200 * time.Millisecond

// sliceWindow cuts a window into equal slices of about sliceLength, never
// fewer than five, so a short smoke window still has quartiles to take.
func sliceWindow(window time.Duration) (n int, each time.Duration) {
	n = int(window / sliceLength)
	if n < 5 {
		n = 5
	}
	return n, window / time.Duration(n)
}

// summarise folds the samples of one operation kind, logged over a window
// during which the probe saw av, into phaseStats.
func summarise(samples []sample, av avail) phaseStats {
	var st phaseStats
	n, each := sliceWindow(av.wall)
	units := make([]float64, n)
	all := make([]float64, 0, len(samples))
	var sum, total float64
	for _, s := range samples {
		k := int(s.end / each)
		if k < 0 || k >= n {
			continue // finished after the window closed
		}
		ms := float64(s.lat) / float64(time.Millisecond)
		units[k] += float64(s.units)
		total += float64(s.units)
		all = append(all, ms)
		sum += ms
	}
	if len(all) == 0 {
		return st
	}
	sort.Float64s(all)
	st.rawRate = total / av.wall.Seconds()
	st.rate = total / av.own().Seconds()
	// An operation in flight while the probe runs a burst waits for it: the
	// bursts are in the latencies in the proportion they are in the window.
	st.rawMeanMs = sum / float64(len(all))
	st.meanMs = st.rawMeanMs * av.own().Seconds() / av.wall.Seconds()
	st.p50ms = percentile(all, 0.50)
	st.p99ms = percentile(all, 0.99)
	rates := make([]float64, n)
	for k := range rates {
		rates[k] = units[k] / each.Seconds()
	}
	if q1, q3 := quartiles(rates); median(rates) > 0 {
		st.sliceIQRPct = 100 * (q3 - q1) / median(rates)
	}
	return st
}

// selfTime is a span's own share of its duration: what is left after the
// child spans it covers. Clock skew between goroutines can push the
// remainder a hair below zero; it is reported as measured, not clamped, so
// the budget lines still sum to the parent.
func selfTime(parent float64, children ...float64) float64 {
	for _, c := range children {
		parent -= c
	}
	return parent
}
