//go:build !amd64 || purego

package nn

// adamUpdate is Adam's update of one parameter (adamGo; there is no
// assembly off amd64 or under the purego tag).
func adamUpdate(value, m, v, g []float64, k *adamCoef) {
	adamGo(value, m, v, g, k)
}
