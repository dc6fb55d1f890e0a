package embed

import (
	"math"
	"math/rand"
	"testing"
)

// searchNeg is the binary search the guided sampler replaced, kept as its
// reference: the smallest i with cum[i] >= r, clamped to the last index.
func searchNeg(cum []float64, r float64) int {
	lo, hi := 0, len(cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cum[mid] < r {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// cumOf normalises weights into a cumulative table the way negTable does.
func cumOf(weights []float64) []float64 {
	var total float64
	for _, w := range weights {
		total += w
	}
	cum := make([]float64, len(weights))
	run := 0.0
	for i, w := range weights {
		run += w / total
		cum[i] = run
	}
	return cum
}

func checkSampler(t *testing.T, name string, cum []float64, rs []float64) {
	t.Helper()
	s := newNegSampler(cum)
	for _, r := range rs {
		if r < 0 || r >= 1 {
			continue // rng.Float64 is in [0, 1)
		}
		if got, want := s.find(r), searchNeg(cum, r); got != want {
			t.Fatalf("%s (%d entries): r=%v (%#x): guided %d, binary search %d", name, len(cum), r, math.Float64bits(r), got, want)
		}
	}
}

func TestGuidedSamplerMatchesBinarySearch(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	draws := make([]float64, 100000)
	for i := range draws {
		draws[i] = rng.Float64()
	}
	for _, n := range []int{1, 2, 3, 996, 4096} {
		uniform := make([]float64, n)
		zipf := make([]float64, n)
		for i := range uniform {
			uniform[i] = 1
			zipf[i] = 1 / float64(i+1)
		}
		// Flat runs: every third entry repeats the one before it.
		flat := cumOf(zipf)
		for i := 1; i < n; i += 3 {
			flat[i] = flat[i-1]
		}
		// A last entry that rounds below 1: draws above it clamp to it.
		short := cumOf(uniform)
		for i := range short {
			short[i] *= 1 - 1e-9
		}
		head := cumOf(uniform) // all the mass in the first entry
		for i := range head {
			head[i] = 1
		}
		// Every entry one ulp under a bucket boundary (i+1)/n: for a draw r
		// equal to such an entry r*B often rounds up to the boundary's
		// bucket, whose guide entry is one past the answer, so find must
		// step back.
		under := make([]float64, n)
		for i := range under {
			under[i] = math.Nextafter(float64(i+1)/float64(n), 0)
		}
		for name, cum := range map[string][]float64{
			"uniform": cumOf(uniform), "zipf": cumOf(zipf), "flat": flat, "short": short, "head": head, "under": under,
		} {
			rs := []float64{0, math.Nextafter(1, 0)}
			edge := func(v float64) {
				rs = append(rs, math.Nextafter(v, 0), v, math.Nextafter(v, 2))
			}
			// Every guide bucket boundary b/B, B = guideBuckets·n, which
			// includes every b/n.
			nb := guideBuckets * n
			for b := 0; b <= nb; b++ {
				edge(float64(b) / float64(nb))
			}
			for _, c := range cum {
				edge(c)
			}
			checkSampler(t, name, cum, rs)
			checkSampler(t, name, cum, draws)
		}
	}
}

// FuzzGuidedSampler builds a table from arbitrary bytes (zero bytes make flat
// runs) and checks one draw against the binary search.
func FuzzGuidedSampler(f *testing.F) {
	f.Add([]byte{1}, 0.0)
	f.Add([]byte{1, 2, 3}, 0.5)
	f.Add([]byte{0, 0, 255, 0, 1}, math.Nextafter(1, 0))
	f.Add([]byte{7, 0, 0, 0, 0, 0, 0, 9}, 0.125)
	f.Fuzz(func(t *testing.T, seed []byte, r float64) {
		if len(seed) == 0 || !(r >= 0 && r < 1) {
			t.Skip()
		}
		weights := make([]float64, len(seed))
		any := false
		for i, b := range seed {
			weights[i] = float64(b)
			any = any || b != 0
		}
		if !any {
			t.Skip()
		}
		cum := cumOf(weights)
		if got, want := newNegSampler(cum).find(r), searchNeg(cum, r); got != want {
			t.Fatalf("table %v, r=%v: guided %d, binary search %d", cum, r, got, want)
		}
	})
}
