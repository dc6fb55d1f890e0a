package metrics

import (
	"fmt"
	"math"
	"sort"
)

// DefaultAbsErrorUppers are the default bin upper bounds (seconds) for
// absolute travel-time errors. They span the error range the simulated
// cities produce — a few seconds for cache-warm short trips up to several
// minutes for the worst rush-hour cases — with an implicit +Inf bin above.
var DefaultAbsErrorUppers = []float64{5, 10, 20, 30, 45, 60, 90, 120, 180, 300, 600}

// RefDist is a binned distribution of a scalar quantity — in this
// repository, the per-sample absolute estimation error |yᵢ − ŷᵢ| on the
// held-out test split at training time. ttetrain stores it in the model
// checkpoint so the online quality monitor (internal/quality) can compare
// the live error distribution against the one the model shipped with and
// raise a drift signal when they diverge (PSI).
//
// Bins are (−inf, Uppers[0]], (Uppers[0], Uppers[1]], ..., (Uppers[n−1],
// +inf): len(Counts) == len(Uppers)+1. Fields are exported for
// encoding/gob (the checkpoint format).
type RefDist struct {
	// Uppers are the ascending finite bin upper bounds.
	Uppers []float64
	// Counts holds one count per bin, the +Inf bin last.
	Counts []uint64
}

// NewRefDist returns an empty distribution over the given bin bounds
// (ascending; nil uses DefaultAbsErrorUppers).
func NewRefDist(uppers []float64) *RefDist {
	if uppers == nil {
		uppers = DefaultAbsErrorUppers
	}
	for i := 1; i < len(uppers); i++ {
		if uppers[i] <= uppers[i-1] {
			panic(fmt.Sprintf("metrics: RefDist bounds not ascending: %v", uppers))
		}
	}
	return &RefDist{
		Uppers: append([]float64(nil), uppers...),
		Counts: make([]uint64, len(uppers)+1),
	}
}

// Validate checks a distribution read from an untrusted source (a
// checkpoint file): ascending bounds and a count per bin.
func (d *RefDist) Validate() error {
	if len(d.Uppers) == 0 {
		return fmt.Errorf("metrics: RefDist has no bins")
	}
	for i := 1; i < len(d.Uppers); i++ {
		if d.Uppers[i] <= d.Uppers[i-1] {
			return fmt.Errorf("metrics: RefDist bounds not ascending: %v", d.Uppers)
		}
	}
	if len(d.Counts) != len(d.Uppers)+1 {
		return fmt.Errorf("metrics: RefDist has %d counts for %d bounds", len(d.Counts), len(d.Uppers))
	}
	return nil
}

// Bin returns the index of the bin containing v.
func (d *RefDist) Bin(v float64) int {
	return sort.SearchFloat64s(d.Uppers, v)
}

// Observe adds one sample.
func (d *RefDist) Observe(v float64) { d.Counts[d.Bin(v)]++ }

// Total returns the number of observed samples.
func (d *RefDist) Total() uint64 {
	var t uint64
	for _, c := range d.Counts {
		t += c
	}
	return t
}

// Probs returns the per-bin proportions (all zero for an empty
// distribution).
func (d *RefDist) Probs() []float64 {
	p := make([]float64, len(d.Counts))
	t := float64(d.Total())
	if t == 0 {
		return p
	}
	for i, c := range d.Counts {
		p[i] = float64(c) / t
	}
	return p
}

// psiEps floors bin proportions so empty bins do not blow the logarithm up
// to ±inf; the standard smoothing used with PSI in practice.
const psiEps = 1e-4

// PSI is the Population Stability Index between two probability vectors
// over the same bins: Σ (curᵢ − refᵢ)·ln(curᵢ/refᵢ). Conventional reading:
// < 0.1 stable, 0.1–0.25 moderate shift, > 0.25 significant shift. Both
// vectors must have the same length; proportions are floored at a small
// epsilon so empty bins stay finite. PSI panics on mismatched lengths (a
// programmer error) and returns NaN if either vector sums to zero (no
// samples — nothing to compare).
func PSI(ref, cur []float64) float64 {
	if len(ref) != len(cur) {
		panic(fmt.Sprintf("metrics: PSI over mismatched bins: %d vs %d", len(ref), len(cur)))
	}
	var sumRef, sumCur float64
	for i := range ref {
		sumRef += ref[i]
		sumCur += cur[i]
	}
	if sumRef == 0 || sumCur == 0 {
		return math.NaN()
	}
	var psi float64
	for i := range ref {
		r := math.Max(ref[i]/sumRef, psiEps)
		c := math.Max(cur[i]/sumCur, psiEps)
		psi += float64((c - r) * math.Log(c/r))
	}
	return psi
}
