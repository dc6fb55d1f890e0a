package core

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"runtime"
	"sort"
	"testing"

	"deepod/internal/dataset"
)

// paramsChecksum is FNV-1a over every parameter's name and raw float bits,
// names sorted so the map order of Snapshot cannot matter.
func paramsChecksum(m *Model) uint64 {
	snap := m.Params().Save()
	names := make([]string, 0, len(snap))
	for name := range snap {
		names = append(names, name)
	}
	sort.Strings(names)
	h := fnv.New64a()
	var buf [8]byte
	for _, name := range names {
		h.Write([]byte(name))
		for _, v := range snap[name] {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	return h.Sum64()
}

// TestTrainGoldenBits pins training to values, not to another run of the
// same binary: the literals below were recorded on commit e0f4d6c (PR 17),
// before the O(1) negative sampler, the skip-gram pair kernel, the kw==1
// convolution kernels and the four-row mat-vec existed. A kernel change that
// alters one bit of a walk, an embedding, a gradient or an estimate fails
// here; a change that means to (a different gradient summation order, say)
// re-records them in the same commit and says why.
func TestTrainGoldenBits(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden bits were recorded on amd64; the Go compiler fuses multiply-adds on %s, which changes the last bit of a dot product", runtime.GOARCH)
	}
	g, recs := memoWorld(t, 70)
	split, err := dataset.ChronoSplit(recs, 6, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	type golden struct {
		curve     []uint64
		timeScale uint64
		params    uint64
	}
	// One StepPoint per EvalEvery and one more at each epoch boundary, which
	// here falls on the same steps: 2, 2, 4, 4, 6, 6.
	serial := golden{
		curve: []uint64{
			0x4058a9faa8f24082, 0x4058a9faa8f24082,
			0x40564ac77e38aa5d, 0x40564ac77e38aa5d,
			0x40593fe3dda48a6e, 0x40593fe3dda48a6e,
		},
		timeScale: 0x406a92322ccd403b,
		params:    0x5053db7797ca53e8,
	}
	want := map[int]golden{
		0: serial,
		1: serial, // one worker is the serial path, bit for bit
		2: {
			curve: []uint64{
				0x40483f1f8208e8ae, 0x40483f1f8208e8ae,
				0x404581fe99f6f276, 0x404581fe99f6f276,
				0x40477dfc103ce7c3, 0x40477dfc103ce7c3,
			},
			timeScale: serial.timeScale,
			params:    0xc146a95a403abf8e,
		},
	}
	for _, workers := range []int{0, 1, 2} {
		cfg := tinyConfig()
		cfg.TrainWorkers = workers
		m, err := New(cfg, g)
		if err != nil {
			t.Fatal(err)
		}
		stats, err := m.Train(split.Train, split.Valid, TrainOptions{MaxSteps: 6, EvalEvery: 2})
		if err != nil {
			t.Fatal(err)
		}
		w := want[workers]
		if len(stats.Curve) != len(w.curve) {
			t.Fatalf("workers %d: %d curve points, want %d", workers, len(stats.Curve), len(w.curve))
		}
		for i, p := range stats.Curve {
			if got := math.Float64bits(p.ValMAE); got != w.curve[i] {
				t.Errorf("workers %d: curve[%d] (step %d) = %#x (%v), want %#x", workers, i, p.Step, got, p.ValMAE, w.curve[i])
			}
		}
		if got := math.Float64bits(m.TimeScale()); got != w.timeScale {
			t.Errorf("workers %d: time scale = %#x (%v), want %#x", workers, got, m.TimeScale(), w.timeScale)
		}
		if got := paramsChecksum(m); got != w.params {
			t.Errorf("workers %d: params checksum = %#x, want %#x", workers, got, w.params)
		}
	}
}
