//go:build !amd64 || purego

package embed

// trainPair5 is trainPair's update for five pairwise-distinct targets
// (trainPair5Go; there is no assembly off amd64 or under the purego tag).
func trainPair5(vi, out []float64, t *[pairTargets]int, lr float64) {
	trainPair5Go(vi, out, t, lr)
}
