package core

import (
	"fmt"
	"sync"
	"unsafe"

	"deepod/internal/citysim"
	"deepod/internal/nn"
	"deepod/internal/tensor"
	"deepod/internal/traj"
)

// Formula 18's output ocode = extMLP([weather one-hot | Dtraf]), with the
// traffic code Dtraf = ReLU(extProj(GAP(conv3(conv2(conv1(grid/16)))))) of
// §4.5, is a pure function of (weights, speed matrix, weather), and the
// matrix is refreshed only every Δt = 5 min (or once per traffic-store
// snapshot), so every request of a period computes the same row.
// externalCode — where the eval forward gets every ocode row — therefore
// memoises the D6m-wide row per (matrix, weather) on the model. A hit copies
// the very floats a miss computed, and a miss runs the CNN and extMLP on
// one row, which AffineBatchInto's row independence makes the batched row
// bit for bit, so an estimate is Float64bits-identical with or without the
// memo. Training tapes never consult it: they need the CNN and the MLP on
// the tape for their gradients, and a mini-batch of records rarely shares a
// matrix.

// Memo bounds. The entry bound covers the 8064 five-minute periods of a
// 28-day horizon twice over; the byte bound covers them at beijing-s
// (18×16 cells, 19 MB of matrices the SpeedGridder holds anyway) while
// capping what a large grid or a stream of dead live-merged matrices can
// pin. When either is reached the memo drops everything — a refill costs
// one CNN forward per live matrix, an LRU list would cost every hit.
const (
	trafficMemoMaxEntries = 1 << 14
	// trafficMemoMaxBytes bounds the bytes the memo keeps alive: per entry
	// the matrix its key pins plus the ocode row.
	trafficMemoMaxBytes = 32 << 20
	// trafficMemoChunk is the number of rows per arena chunk: the slack is
	// at most one chunk, with no append-doubling over the rows.
	trafficMemoChunk = 64
)

// trafficKey identifies a bundle by the identity of its speed matrix's
// backing array, the same data-pointer identity traffic.mergedEntry relies
// on (traj.ExternalFeatures.SpeedGrid is read-only once handed out, and
// citysim.SpeedGridder hands out one bundle per period), and by its weather
// id, the other input of Formula 18. An entry holding the key keeps the
// array alive, so its address cannot be reused while the entry lives.
// len(SpeedGrid) is rows*cols by checkExternal, so the shape carries it.
type trafficKey struct {
	grid                *float64
	rows, cols, weather int32
}

// hash folds the key into the memo's 8-byte index key: the matrix's address
// and a word of the shape and weather, a multiply each, then the murmur3
// finalizer. Go's collector does not move heap objects, so the address is
// stable while the key pins it.
func (k trafficKey) hash() uint64 {
	h := uint64(uintptr(unsafe.Pointer(k.grid)))
	for _, w := range [...]uint64{uint64(uint32(k.rows))<<32 | uint64(uint32(k.cols)), uint64(uint32(k.weather))} {
		h = (h ^ w) * 0x9e3779b97f4a7c15
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

// trafficMemo maps bundles to their ocode rows: an index from a key's hash
// to an entry number, keys[n] being entry n's whole key and its row lying
// in a chunked arena of D6m-wide rows. The pointer-free 8-byte index key is
// the fast map path, and the collector never scans the index; a lookup
// still needs the entry's key to equal the request's. The zero value is an
// empty memo.
type trafficMemo struct {
	mu     sync.RWMutex
	index  map[uint64]int32
	keys   []trafficKey
	chunks [][]float64
	bytes  int
}

// load copies the row of k into dst, reporting whether it was there. It
// takes the read lock only and allocates nothing.
func (tm *trafficMemo) load(k trafficKey, dst []float64) bool {
	h := k.hash()
	tm.mu.RLock()
	i, ok := tm.index[h]
	ok = ok && tm.keys[i] == k
	if ok {
		off := int(i) % trafficMemoChunk * len(dst)
		copy(dst, tm.chunks[int(i)/trafficMemoChunk][off:off+len(dst)])
	}
	tm.mu.RUnlock()
	return ok
}

// store records row under k unless a racing miss already did (both
// computed the same floats), or another key holds k's hash: that entry
// keeps the slot, and k is computed on every lookup. A full memo is
// dropped whole first.
func (tm *trafficMemo) store(k trafficKey, row []float64) {
	h := k.hash()
	cost := 8 * (int(k.rows)*int(k.cols) + len(row)) // the pinned matrix plus the row
	tm.mu.Lock()
	defer tm.mu.Unlock()
	if _, ok := tm.index[h]; ok {
		return
	}
	if len(tm.index) >= trafficMemoMaxEntries || tm.bytes+cost > trafficMemoMaxBytes {
		tm.index, tm.keys, tm.chunks, tm.bytes = nil, nil, nil, 0
	}
	if tm.index == nil {
		tm.index = make(map[uint64]int32)
	}
	n := len(tm.index)
	if n%trafficMemoChunk == 0 {
		tm.chunks = append(tm.chunks, make([]float64, trafficMemoChunk*len(row)))
	}
	off := n % trafficMemoChunk * len(row)
	copy(tm.chunks[n/trafficMemoChunk][off:off+len(row)], row)
	tm.index[h] = int32(n)
	tm.keys = append(tm.keys, k)
	tm.bytes += cost
	trafficCodeEntries.Set(float64(n + 1))
}

// invalidate empties the memo; Train calls it after every optimizer step,
// because the rows are a function of the weights the step just moved.
func (tm *trafficMemo) invalidate() {
	tm.mu.Lock()
	if len(tm.index) > 0 {
		tm.index, tm.keys, tm.chunks, tm.bytes = nil, nil, nil, 0
		trafficCodeEntries.Set(0)
	}
	tm.mu.Unlock()
}

// ValidateExternal is the one validation of an external-feature bundle: a
// weather id in [0, citysim.WeatherTypes) and a SpeedGrid of exactly
// GridRows×GridCols cells (none: weather only). A serving layer rejects a
// failing bundle as bad input before it reaches the model.
func ValidateExternal(ext *traj.ExternalFeatures) error {
	if ext.Weather < 0 || ext.Weather >= citysim.WeatherTypes {
		return fmt.Errorf("core: ExternalFeatures.Weather %d out of range [0,%d)", ext.Weather, citysim.WeatherTypes)
	}
	if ext.GridRows < 0 || ext.GridCols < 0 || len(ext.SpeedGrid) != ext.GridRows*ext.GridCols {
		return fmt.Errorf("core: ExternalFeatures.SpeedGrid has %d cells, GridRows×GridCols is %d×%d",
			len(ext.SpeedGrid), ext.GridRows, ext.GridCols)
	}
	return nil
}

// checkExternal is ValidateExternal as the training graph and the eval
// forward need it: a bad bundle is a programming error there, so it panics.
// It reports whether ext carries a speed matrix; a bundle without one
// (weather only) encodes a zero traffic code, like a nil bundle.
func checkExternal(ext *traj.ExternalFeatures) bool {
	if err := ValidateExternal(ext); err != nil {
		panic(err.Error())
	}
	return len(ext.SpeedGrid) > 0
}

// trafficCNN builds the [len(exts), Dtraf] traffic codes of checked,
// non-empty speed matrices of one shape on tp, the matrices as one
// [N, 1, H, W] batch: the training graph, and (N = 1) the miss branch of
// externalCode. Row n is the code of exts[n] computed alone.
func (m *Model) trafficCNN(tp *nn.Tape, exts []*traj.ExternalFeatures) *nn.Node {
	h, w := exts[0].GridRows, exts[0].GridCols
	grid := tp.Alloc(len(exts), 1, h, w)
	for n, ext := range exts {
		cells := grid.Data[n*h*w : (n+1)*h*w]
		for i, v := range ext.SpeedGrid[:len(cells)] {
			cells[i] = v / maxSpeedNorm
		}
	}
	c1 := m.extConv1.Forward(tp, tp.Const(grid))
	c2 := m.extConv2.Forward(tp, c1)
	c3 := m.extConv3.Forward(tp, c2)
	pooled := tp.GlobalAvgPool(c3)
	return tp.ReLU(m.extProj.Forward(tp, pooled))
}

// externalCode writes Formula 18's output for ext into dst (D6m wide) for
// the eval forward: extMLP over the Z⁸ row [WeatherTypes one-hot | Dtraf
// traffic code], which is all zeros for a nil bundle and has a zero code
// without a speed matrix. A bundle with a matrix is looked up in the
// model's memo by (matrix, weather); a miss runs the CNN on a pooled eval
// tape and extMLP on the one row, carved out of ar, and records the result.
// A bundle without a matrix runs extMLP on its row every time. Concurrent
// misses on one fresh key may each compute it — they compute identical
// floats, so there is no single-flight. Safe for concurrent use, each
// caller with its own arena.
func (m *Model) externalCode(ar *tensor.Arena, ext *traj.ExternalFeatures, dst []float64) {
	hasGrid := ext != nil && checkExternal(ext)
	var k trafficKey
	// A matrix the byte bound could never hold is computed every time (and
	// is the only way a shape could overflow the key's int32s).
	memoise := hasGrid && len(ext.SpeedGrid) <= trafficMemoMaxBytes/8-len(dst)
	if memoise {
		k = trafficKey{grid: &ext.SpeedGrid[0], rows: int32(ext.GridRows), cols: int32(ext.GridCols), weather: int32(ext.Weather)}
		if m.traf.load(k, dst) {
			trafficCodeHits.Inc()
			return
		}
	}
	z8 := ar.New(1, citysim.WeatherTypes+m.cfg.Dtraf)
	if ext != nil {
		z8.Data[ext.Weather] = 1
	}
	if hasGrid {
		tp := nn.GetEvalTape()
		one := [1]*traj.ExternalFeatures{ext}
		copy(z8.Data[citysim.WeatherTypes:], m.trafficCNN(tp, one[:]).Value.Data)
		nn.PutEvalTape(tp)
		trafficCodeMisses.Inc()
	}
	copy(dst, m.extMLP.ForwardBatch(ar, z8).Data)
	if memoise {
		m.traf.store(k, dst)
	}
}
