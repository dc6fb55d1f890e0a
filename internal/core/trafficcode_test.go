package core

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"deepod/internal/citysim"
	"deepod/internal/dataset"
	"deepod/internal/metrics"
	"deepod/internal/nn"
	"deepod/internal/roadnet"
	"deepod/internal/tensor"
	"deepod/internal/traj"
)

func wantBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d estimates, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: OD %d: %v (bits %x), reference %v (bits %x)",
				what, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// ocode is Formula 18's output for ext through the eval forward's memo
// (externalCode), on a pooled arena.
func ocode(m *Model, ext *traj.ExternalFeatures) []float64 {
	ar := fusedArenas.Get().(*tensor.Arena)
	ar.Reset()
	row := make([]float64, m.cfg.D6m)
	m.externalCode(ar, ext, row)
	fusedArenas.Put(ar)
	return row
}

// tapeOcode is the memo-less reference for ocode: the training graph's
// Formula 18 (encodeExternals, the CNN and extMLP on a fresh tape).
func tapeOcode(m *Model, ext *traj.ExternalFeatures) []float64 {
	return m.encodeExternals(nn.NewTape(), []*traj.ExternalFeatures{ext}).Value.Data
}

// memoWorld is testWorld with every speed matrix blown up to 12×10 cells,
// sharing preserved. testWorld's 5×5 matrices reach conv3 as one cell per
// channel, which the channel norm maps to zero whatever the weights: the
// traffic code would be all zeros and these tests would prove nothing.
func memoWorld(t testing.TB, orders int) (*roadnet.Graph, []traj.TripRecord) {
	t.Helper()
	g, recs := testWorld(t, orders)
	const rows, cols = 12, 10
	big := map[*float64]*traj.ExternalFeatures{}
	for i := range recs {
		e := recs[i].Matched.External
		if e == nil {
			continue
		}
		b := big[&e.SpeedGrid[0]]
		if b == nil {
			b = &traj.ExternalFeatures{Weather: e.Weather, SpeedGrid: make([]float64, rows*cols), GridRows: rows, GridCols: cols}
			for r := 0; r < rows; r++ {
				for c := 0; c < cols; c++ {
					src := e.SpeedGrid[r*e.GridRows/rows*e.GridCols+c*e.GridCols/cols]
					b.SpeedGrid[r*cols+c] = src * (1 + float64((r*7+c*3)%5)/10)
				}
			}
			big[&e.SpeedGrid[0]] = b
		}
		recs[i].Matched.External = b
	}
	return g, recs
}

// trainedTinyModel trains the tiny configuration for one epoch, so the
// traffic CNN's weights are not their initial values.
func trainedTinyModel(t testing.TB, orders int) (*Model, []traj.TripRecord) {
	t.Helper()
	g, recs := memoWorld(t, orders)
	split, err := dataset.ChronoSplit(recs, 6, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := tinyConfig()
	cfg.Epochs = 1
	m, err := New(cfg, g)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Train(split.Train, split.Valid, TrainOptions{}); err != nil {
		t.Fatal(err)
	}
	return m, recs
}

// mixedODs returns the records' ODs with their External rewritten into a
// mix a serving batch can hold: matrices shared by several ODs (four of the
// world's periods), matrices of their own (a private copy, so another
// identity with the same content), a weather-only bundle and nil.
func mixedODs(t testing.TB, recs []traj.TripRecord) []traj.MatchedOD {
	t.Helper()
	var shared []*traj.ExternalFeatures
	seen := map[*float64]bool{}
	for i := range recs {
		if e := recs[i].Matched.External; e != nil && !seen[&e.SpeedGrid[0]] && len(shared) < 4 {
			seen[&e.SpeedGrid[0]] = true
			shared = append(shared, e)
		}
	}
	if len(shared) < 4 {
		t.Fatalf("only %d distinct speed matrices in the test world", len(shared))
	}
	ods := make([]traj.MatchedOD, len(recs))
	for i := range recs {
		ods[i] = recs[i].Matched
		switch i % 5 {
		case 0, 1:
			ods[i].External = shared[i%4]
		case 2:
			own := *shared[i%4]
			own.SpeedGrid = append([]float64(nil), own.SpeedGrid...)
			own.SpeedGrid[i%len(own.SpeedGrid)] += float64(i) / 8
			ods[i].External = &own
		case 3:
			ods[i].External = &traj.ExternalFeatures{Weather: i % citysim.WeatherTypes}
		case 4:
			ods[i].External = nil
		}
	}
	return ods
}

var memoBatchSizes = []int{1, 2, 7, 16, 33}

// TestTrafficCodeHitMissReference pins the tentpole contract: on every eval
// path an estimate computed on a memo miss, the same estimate served from a
// hit, and the memo-less reference are Float64bits-equal, for batches that
// mix shared, distinct, weather-only and nil External.
func TestTrafficCodeHitMissReference(t *testing.T) {
	m, recs := trainedTinyModel(t, 60)
	ods := mixedODs(t, recs)
	want := make([]float64, len(ods))
	for i := range ods {
		want[i] = referenceEstimate(m, &ods[i])
	}

	m.traf.invalidate()
	hits, misses := trafficCodeHits.Value(), trafficCodeMisses.Value()
	wantBits(t, "B=1, cold memo", estimateEach(m, ods), want)
	withGrid, distinct := 0, map[*float64]bool{}
	for i := range ods {
		if e := ods[i].External; e != nil && len(e.SpeedGrid) > 0 {
			withGrid++
			distinct[&e.SpeedGrid[0]] = true
		}
	}
	if got := trafficCodeMisses.Value() - misses; got != uint64(len(distinct)) {
		t.Fatalf("%d misses for %d distinct matrices", got, len(distinct))
	}
	if got := trafficCodeHits.Value() - hits; got != uint64(withGrid-len(distinct)) {
		t.Fatalf("%d hits, want %d", got, withGrid-len(distinct))
	}
	if got := trafficCodeEntries.Value(); got != float64(len(distinct)) || len(m.traf.index) != len(distinct) {
		t.Fatalf("entries gauge %v, index %d, want %d", got, len(m.traf.index), len(distinct))
	}
	nonZero := false
	for _, chunk := range m.traf.chunks {
		for _, v := range chunk {
			nonZero = nonZero || v != 0
		}
	}
	if !nonZero {
		t.Fatal("every memoised code is all zeros; the test proves nothing")
	}
	misses = trafficCodeMisses.Value()
	wantBits(t, "B=1, warm memo", estimateEach(m, ods), want)
	if got := trafficCodeMisses.Value() - misses; got != 0 {
		t.Fatalf("%d misses on a warm memo", got)
	}

	for _, b := range memoBatchSizes {
		for _, warm := range []bool{false, true} {
			if !warm {
				m.traf.invalidate()
			}
			what := fmt.Sprintf("fused B=%d warm=%v", b, warm)
			wantBits(t, what, m.EstimateBatchFused(ods[:b]), want[:b])
		}
	}

}

// TestTrafficCodeInvalidatedByTrain: one optimizer step changes the
// external code of an unchanged matrix, and the memo must not outlive the
// step: what it serves afterwards is the code under the step's weights.
func TestTrafficCodeInvalidatedByTrain(t *testing.T) {
	g, recs := memoWorld(t, 60)
	split, err := dataset.ChronoSplit(recs, 6, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(tinyConfig(), g)
	if err != nil {
		t.Fatal(err)
	}
	ext := split.Valid[0].Matched.External
	before := ocode(m, ext)
	if len(m.traf.index) != 1 {
		t.Fatalf("memo holds %d entries after one lookup", len(m.traf.index))
	}
	if _, err := m.Train(split.Train, split.Valid, TrainOptions{MaxSteps: 1}); err != nil {
		t.Fatal(err)
	}
	after := ocode(m, ext)
	changed := false
	for i, v := range tapeOcode(m, ext) {
		if math.Float64bits(after[i]) != math.Float64bits(v) {
			t.Fatalf("ocode[%d] after a Train step is %v, the step's weights give %v", i, after[i], v)
		}
		changed = changed || after[i] != before[i]
	}
	if !changed {
		t.Fatal("one Train step left the external code unchanged; the test proves nothing")
	}
}

// TestTrafficCodeWeatherKey: one speed matrix under two weather ids is two
// memo entries, and each hit is Float64bits-equal to the same OD estimated
// by the memo-less reference and on a cold memo.
func TestTrafficCodeWeatherKey(t *testing.T) {
	m, recs := trainedTinyModel(t, 60)
	var od traj.MatchedOD
	for i := range recs {
		if e := recs[i].Matched.External; e != nil && len(e.SpeedGrid) > 0 {
			od = recs[i].Matched
			break
		}
	}
	if od.External == nil {
		t.Fatal("no record carries a speed matrix")
	}
	ods := make([]traj.MatchedOD, 2)
	for i, w := range []int{1, 6} {
		ext := *od.External // same SpeedGrid backing array
		ext.Weather = w
		ods[i] = od
		ods[i].External = &ext
	}
	want := []float64{referenceEstimate(m, &ods[0]), referenceEstimate(m, &ods[1])}
	if want[0] == want[1] {
		t.Fatal("two weather ids gave one estimate; the test proves nothing")
	}
	cold := make([]float64, len(ods))
	for i := range ods {
		m.traf.invalidate()
		cold[i] = m.Estimate(&ods[i])
	}
	wantBits(t, "cold memo", cold, want)

	m.traf.invalidate()
	misses, hits := trafficCodeMisses.Value(), trafficCodeHits.Value()
	wantBits(t, "miss", estimateEach(m, ods), want)
	if got := trafficCodeMisses.Value() - misses; got != 2 || len(m.traf.index) != 2 {
		t.Fatalf("%d misses, %d entries for one matrix under two weather ids, want 2 and 2", got, len(m.traf.index))
	}
	wantBits(t, "hit", estimateEach(m, ods), want)
	wantBits(t, "fused hit", m.EstimateBatchFused(ods), want)
	if got := trafficCodeHits.Value() - hits; got != 4 {
		t.Fatalf("%d hits on a warm memo, want 4", got)
	}
}

// TestTrafficCodeMemoKeys: the memo's index holds a key's 8-byte hash, and
// the entry its whole key. One matrix under two weather ids is two entries
// with two rows; a lookup whose hash lands on another key's entry misses,
// and its store leaves that entry in place.
func TestTrafficCodeMemoKeys(t *testing.T) {
	ext := gridOf(3, 4, 0)
	keyOf := func(weather int32) trafficKey {
		return trafficKey{grid: &ext.SpeedGrid[0], rows: 3, cols: 4, weather: weather}
	}
	var tm trafficMemo
	rows := map[int32][]float64{1: {1, 2, 3}, 6: {4, 5, 6}}
	for w, row := range rows {
		tm.store(keyOf(w), row)
	}
	if len(tm.index) != 2 || len(tm.keys) != 2 {
		t.Fatalf("%d index entries, %d keys for one matrix under two weather ids, want 2 and 2", len(tm.index), len(tm.keys))
	}
	dst := make([]float64, 3)
	for w, row := range rows {
		if !tm.load(keyOf(w), dst) || !reflect.DeepEqual(dst, row) {
			t.Fatalf("weather %d: loaded %v, stored %v", w, dst, row)
		}
	}

	// A third key whose hash the index maps to weather 1's entry.
	other := keyOf(9)
	tm.index[other.hash()] = tm.index[keyOf(1).hash()]
	if tm.load(other, dst) {
		t.Fatal("a key whose hash names another key's entry hit")
	}
	tm.store(other, []float64{7, 8, 9})
	if len(tm.keys) != 2 || !tm.load(keyOf(1), dst) || !reflect.DeepEqual(dst, rows[1]) {
		t.Fatalf("a colliding store replaced an entry: %d keys, weather 1 loads %v", len(tm.keys), dst)
	}
}

// TestTrafficCodeHitAllocs: a memo hit of externalCode allocates nothing.
func TestTrafficCodeHitAllocs(t *testing.T) {
	g, _ := testWorld(t, 20)
	m, err := New(tinyConfig(), g)
	if err != nil {
		t.Fatal(err)
	}
	ext := gridOf(12, 10, 0)
	want := ocode(m, ext) // the miss that fills the memo
	var ar tensor.Arena
	row := make([]float64, m.cfg.D6m)
	hits := trafficCodeHits.Value()
	if a := testing.AllocsPerRun(1000, func() {
		ar.Reset()
		m.externalCode(&ar, ext, row)
	}); a != 0 {
		t.Fatalf("a memo hit: %v allocs, want 0", a)
	}
	if got := trafficCodeHits.Value() - hits; got != 1001 {
		t.Fatalf("%v hits, want 1001 (AllocsPerRun's warm-up run and its 1000)", got)
	}
	wantBits(t, "hit", row, want)
}

// TestTrafficCodeTrainCurveExact: every validation MAE a tiny Train reports
// — evaluate() runs through the memo — equals the MAE of memo-less
// reference estimates under the weights of that step, bit for bit, for one
// and two workers. A memo that survived an optimizer step would serve the
// previous step's codes here.
func TestTrafficCodeTrainCurveExact(t *testing.T) {
	g, recs := memoWorld(t, 80)
	split, err := dataset.ChronoSplit(recs, 6, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2} {
		cfg := tinyConfig()
		cfg.Epochs = 2
		cfg.TrainWorkers = workers
		m, err := New(cfg, g)
		if err != nil {
			t.Fatal(err)
		}
		actual := make([]float64, len(split.Valid))
		for i := range split.Valid {
			actual[i] = split.Valid[i].TravelSec
		}
		points := 0
		stats, err := m.Train(split.Train, split.Valid, TrainOptions{EvalEvery: 1, Progress: func(_, step int, mae float64) {
			points++
			pred := make([]float64, len(split.Valid))
			for i := range split.Valid {
				pred[i] = referenceEstimate(m, &split.Valid[i].Matched)
			}
			if want := metrics.MAE(actual, pred); math.Float64bits(mae) != math.Float64bits(want) {
				t.Errorf("workers=%d step %d: Train measured val MAE %v, memo-less reference %v", workers, step, mae, want)
			}
		}})
		if err != nil {
			t.Fatal(err)
		}
		if points != len(stats.Curve) || points < 3 {
			t.Fatalf("workers=%d: %d curve points checked of %d", workers, points, len(stats.Curve))
		}
	}
}

// TestTrafficCodeConcurrent runs 64 goroutines over four shared matrices
// against a cold memo (run under -race): racing misses store once, and
// every answer equals the reference.
func TestTrafficCodeConcurrent(t *testing.T) {
	m, recs := trainedTinyModel(t, 60)
	ods := mixedODs(t, recs)
	var sharedODs []traj.MatchedOD
	matrices := map[*float64]bool{}
	for i := range ods {
		if i%5 < 2 {
			sharedODs = append(sharedODs, ods[i])
			matrices[&ods[i].External.SpeedGrid[0]] = true
		}
	}
	want := make([]float64, len(sharedODs))
	for i := range sharedODs {
		want[i] = referenceEstimate(m, &sharedODs[i])
	}
	m.traf.invalidate()
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 64; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for r := 0; r < 4; r++ {
				var got []float64
				if (g+r)%2 == 0 {
					got = m.EstimateBatchFused(sharedODs)
				} else {
					got = estimateEach(m, sharedODs)
				}
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Errorf("goroutine %d round %d OD %d: %v, reference %v", g, r, i, got[i], want[i])
						return
					}
				}
			}
		}(g)
	}
	close(start)
	wg.Wait()
	if len(m.traf.index) != len(matrices) {
		t.Fatalf("memo holds %d entries for %d shared matrices", len(m.traf.index), len(matrices))
	}
}

// TestTrafficCodePerModel: two models given one matrix keep their own
// rows — the memo is the model's, not the matrix's.
func TestTrafficCodePerModel(t *testing.T) {
	g, _ := testWorld(t, 20)
	ext := gridOf(12, 10, 0)
	codes := make([][]float64, 2)
	for i := range codes {
		cfg := tinyConfig()
		cfg.Seed += int64(i)
		m, err := New(cfg, g)
		if err != nil {
			t.Fatal(err)
		}
		for pass := 0; pass < 2; pass++ { // miss, then hit
			codes[i] = ocode(m, ext)
			for k, v := range tapeOcode(m, ext) {
				if math.Float64bits(v) != math.Float64bits(codes[i][k]) {
					t.Fatalf("model %d pass %d: ocode[%d] = %v, its own tape gives %v", i, pass, k, codes[i][k], v)
				}
			}
		}
		if len(m.traf.index) != 1 {
			t.Fatalf("model %d holds %d entries", i, len(m.traf.index))
		}
	}
	same := true
	for k := range codes[0] {
		same = same && codes[0][k] == codes[1][k]
	}
	if same {
		t.Fatal("two differently seeded models produced the same code; the test proves nothing")
	}
}

// gridOf returns a fresh rows×cols matrix, distinct in identity and content.
func gridOf(rows, cols, salt int) *traj.ExternalFeatures {
	g := make([]float64, rows*cols)
	for i := range g {
		g[i] = float64((i+salt)%13) + 1
	}
	return &traj.ExternalFeatures{SpeedGrid: g, GridRows: rows, GridCols: cols}
}

// TestTrafficCodeBounds: more distinct matrices than either constant allows
// never push the entry count or the retained bytes past it, and what a
// drop-all let go of becomes collectable.
func TestTrafficCodeBounds(t *testing.T) {
	g, _ := testWorld(t, 20)
	m, err := New(tinyConfig(), g)
	if err != nil {
		t.Fatal(err)
	}
	check := func() {
		t.Helper()
		if n := len(m.traf.index); n > trafficMemoMaxEntries || m.traf.bytes > trafficMemoMaxBytes {
			t.Fatalf("memo holds %d entries (bound %d), %d bytes (bound %d)",
				n, trafficMemoMaxEntries, m.traf.bytes, trafficMemoMaxBytes)
		}
	}

	// The entry bound, with matrices too small for the byte bound to act.
	for i := 0; i < trafficMemoMaxEntries+10; i++ {
		ocode(m, gridOf(2, 2, i))
		check()
	}
	if n := len(m.traf.index); n != 10 {
		t.Fatalf("%d entries after overrunning the entry bound by 10, want a dropped memo refilled to 10", n)
	}
	if want := 10 * 8 * (4 + m.cfg.D6m); m.traf.bytes != want {
		t.Fatalf("retained bytes %d, want %d", m.traf.bytes, want)
	}

	// The byte bound, with 1 MiB matrices; finalizers watch them go.
	m.traf.invalidate()
	const big = 34
	freed := make(chan struct{}, big)
	for i := 0; i < big; i++ {
		ext := gridOf(256, 512, i)
		runtime.SetFinalizer(&ext.SpeedGrid[0], func(*float64) { freed <- struct{}{} })
		ocode(m, ext)
		check()
	}
	if n := len(m.traf.index); n >= big || n == 0 {
		t.Fatalf("%d of %d 1 MiB matrices retained under a %d MiB bound", n, big, trafficMemoMaxBytes>>20)
	}
	dropped := big - len(m.traf.index)
	deadline := time.After(30 * time.Second)
	for n := 0; n < dropped; {
		runtime.GC()
		select {
		case <-freed:
			n++
		case <-deadline:
			t.Fatalf("%d of %d dropped matrices collected", n, dropped)
		case <-time.After(10 * time.Millisecond):
		}
	}
	select {
	case <-freed:
		t.Fatal("a matrix the memo still holds was collected")
	default:
	}
	runtime.KeepAlive(m)

	// A matrix the byte bound could never hold is computed, not stored.
	if testing.Short() {
		return
	}
	entries, retained := len(m.traf.index), m.traf.bytes
	huge := gridOf(2048, 2049, 0)
	ocode(m, huge)
	if len(m.traf.index) != entries || m.traf.bytes != retained {
		t.Fatalf("a %d-byte matrix was memoised", 8*len(huge.SpeedGrid))
	}
}

// TestExternalValidation covers the one shared validation on the three
// paths that reach it (one estimate, a batch, the training tape): a bundle
// whose SpeedGrid disagrees with its shape, or whose weather is out of
// range, panics with a message naming the field and the sizes; nil and
// weather-only bundles encode a zero traffic code, outside the memo.
func TestExternalValidation(t *testing.T) {
	g, recs := testWorld(t, 20)
	m, err := New(tinyConfig(), g)
	if err != nil {
		t.Fatal(err)
	}
	od := recs[0].Matched
	paths := map[string]func(){
		"one":   func() { m.Estimate(&od) },
		"batch": func() { m.EstimateBatchFused([]traj.MatchedOD{od, od}) },
		"train": func() { referenceEstimate(m, &od) },
	}
	bad := map[string]struct {
		ext  traj.ExternalFeatures
		want []string
	}{
		"long grid":    {traj.ExternalFeatures{SpeedGrid: make([]float64, 13), GridRows: 3, GridCols: 4}, []string{"ExternalFeatures.SpeedGrid", "13 cells", "3×4"}},
		"short grid":   {traj.ExternalFeatures{SpeedGrid: make([]float64, 11), GridRows: 3, GridCols: 4}, []string{"ExternalFeatures.SpeedGrid", "11 cells", "3×4"}},
		"no grid":      {traj.ExternalFeatures{GridRows: 3, GridCols: 4}, []string{"ExternalFeatures.SpeedGrid", "0 cells", "3×4"}},
		"negative dim": {traj.ExternalFeatures{SpeedGrid: make([]float64, 12), GridRows: -3, GridCols: -4}, []string{"ExternalFeatures.SpeedGrid", "-3×-4"}},
		"weather":      {traj.ExternalFeatures{Weather: citysim.WeatherTypes}, []string{"ExternalFeatures.Weather", fmt.Sprint(citysim.WeatherTypes)}},
	}
	for name, tc := range bad {
		for path, run := range paths {
			ext := tc.ext
			od.External = &ext
			func() {
				defer func() {
					msg := fmt.Sprint(recover())
					for _, w := range tc.want {
						if !strings.Contains(msg, w) {
							t.Errorf("%s on the %s path: panic %q does not mention %q", name, path, msg, w)
						}
					}
				}()
				run()
			}()
		}
	}

	for _, ext := range []*traj.ExternalFeatures{nil, {Weather: 3}} {
		got, want := ocode(m, ext), tapeOcode(m, ext)
		wantBits(t, fmt.Sprintf("External %+v", ext), got, want)
	}
	if len(m.traf.index) != 0 {
		t.Fatalf("bundles without a matrix left %d memo entries", len(m.traf.index))
	}
}
