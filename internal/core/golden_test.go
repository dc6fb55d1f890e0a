package core

import (
	"encoding/binary"
	"hash/fnv"
	"math"
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
// same binary. A kernel change that alters one bit of a walk, an embedding, a
// gradient or an estimate fails here; a change that means to (a different
// gradient summation order, say) re-records them in the same commit and says
// why. The test runs on every architecture: every product in the packages
// training runs is written float64(a*b), which forbids the compiler to fuse
// it into a multiply-add (scripts/fma.sh cross-compiles arm64, ppc64le,
// s390x and riscv64 and fails on any fused op). The standard library's own
// per-architecture assembly, math.Exp's on arm64 and s390x, is outside what
// that check can see.
//
// Re-recorded when each worker began to train its shard of a mini-batch as
// one graph of [rows, d] matrices: the forward is bit-identical, but a
// gradient is now a matrix product summed over the shard's rows (and, in
// the LSTM, over its time steps) before it reaches the accumulator, where it
// used to be one per-sample graph's contribution added after another. The
// walks, the embeddings and the time scale are unchanged; the earlier
// literals (recorded on commit e0f4d6c) were curve 0x4058a9faa8f24082,
// 0x40564ac77e38aa5d, 0x40593fe3dda48a6e and params 0x5053db7797ca53e8
// serially, curve 0x40483f1f8208e8ae, 0x404581fe99f6f276, 0x40477dfc103ce7c3
// and params 0xc146a95a403abf8e with two workers.
func TestTrainGoldenBits(t *testing.T) {
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
			0x4058a9faa8f24080, 0x4058a9faa8f24080,
			0x40564ac77e38aa5f, 0x40564ac77e38aa5f,
			0x40593fe3dda48a6e, 0x40593fe3dda48a6e,
		},
		timeScale: 0x406a92322ccd403b,
		params:    0xe4034bb575680bf0,
	}
	want := map[int]golden{
		0: serial,
		1: serial, // one worker is the serial path, bit for bit
		2: {
			curve: []uint64{
				0x40483f1f8208e8b0, 0x40483f1f8208e8b0,
				0x404581fe99f6f276, 0x404581fe99f6f276,
				0x40477dfc103ce7c2, 0x40477dfc103ce7c2,
			},
			timeScale: serial.timeScale,
			params:    0xf5b616534c4f9576,
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
