package citysim

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"testing"

	"deepod/internal/roadnet"
	"deepod/internal/traj"
)

// bitHash is FNV-1a over raw float and integer bits.
type bitHash struct {
	h   hash.Hash64
	buf [8]byte
}

func newBitHash() *bitHash { return &bitHash{h: fnv.New64a()} }

func (b *bitHash) f(v float64) {
	binary.LittleEndian.PutUint64(b.buf[:], math.Float64bits(v))
	b.h.Write(b.buf[:])
}

func (b *bitHash) i(v int) {
	binary.LittleEndian.PutUint64(b.buf[:], uint64(int64(v)))
	b.h.Write(b.buf[:])
}

func (b *bitHash) ext(x *traj.ExternalFeatures) {
	if x == nil {
		b.i(-1)
		return
	}
	b.i(x.Weather)
	b.i(x.GridRows)
	b.i(x.GridCols)
	for _, v := range x.SpeedGrid {
		b.f(v)
	}
}

// TestCityGoldenBits pins the simulator to values: FNV-1a over every bit of
// the generated trip records, of a sweep of speed matrices, of the traffic
// field sampled at (edge, time) pairs and of one probe window. Every
// consumer downstream (the training golden tests, the bench's fixture, the
// replay smoke) trains or serves on these bits, so a rewrite of the field's
// evaluation that moves one of them fails here first.
func TestCityGoldenBits(t *testing.T) {
	tf := testTraffic(t)
	g := tf.Graph()
	sg, err := NewSpeedGridder(tf, 250, 300)
	if err != nil {
		t.Fatal(err)
	}

	gen, err := NewGenerator(tf, sg, DefaultOrderConfig(200, 9))
	if err != nil {
		t.Fatal(err)
	}
	recs, err := gen.Generate()
	if err != nil {
		t.Fatal(err)
	}
	rh := newBitHash()
	for i := range recs {
		r := &recs[i]
		rh.f(r.OD.Origin.X)
		rh.f(r.OD.Origin.Y)
		rh.f(r.OD.Dest.X)
		rh.f(r.OD.Dest.Y)
		rh.f(r.OD.DepartSec)
		rh.i(int(r.Matched.OriginEdge))
		rh.i(int(r.Matched.DestEdge))
		rh.f(r.Matched.RStart)
		rh.f(r.Matched.REnd)
		for _, s := range r.Trajectory.Path {
			rh.i(int(s.Edge))
			rh.f(s.Enter)
			rh.f(s.Exit)
		}
		rh.f(r.TravelSec)
		rh.i(r.RawPoints)
		rh.ext(r.OD.External)
	}

	mh := newBitHash()
	for sec := 0.0; sec < tf.Horizon(); sec += 7 * sg.PeriodSec {
		mh.ext(sg.External(sec))
	}

	fh := newBitHash()
	cost := tf.TravelCost()
	for e := 0; e < g.NumEdges(); e += 5 {
		id := roadnet.EdgeID(e)
		for _, sec := range []float64{3 * 3600, 8.5 * 3600, 8.5 * 3600, 13*3600 + 17.25, (5*24 + 14) * 3600, (9*24+18)*3600 + 1e-3} {
			fh.f(tf.Congestion(id, sec))
			fh.f(tf.Speed(id, sec))
			fh.f(tf.EntryWait(id, sec))
			fh.f(tf.TraverseTime(id, 0.1, 0.95, sec))
			fh.f(cost(id, sec))
		}
	}

	ph := newBitHash()
	ps, err := NewProbeStream(tf, ProbeConfig{Vehicles: 12, PeriodSec: 5, NoiseMeters: 8, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range ps.Window(8*3600, 8*3600+1800) {
		ph.h.Write([]byte(p.Vehicle))
		ph.f(p.Pos.X)
		ph.f(p.Pos.Y)
		ph.f(p.T)
	}

	for _, c := range []struct {
		name string
		h    *bitHash
		want uint64
	}{
		{"records", rh, 0x3f5f7822e36ebffc},
		{"matrices", mh, 0x6e7d6c0ee4634f6c},
		{"field", fh, 0xaf35a1790bfdf474},
		{"probes", ph, 0x3a322818a88c73ba},
	} {
		if got := c.h.h.Sum64(); got != c.want {
			t.Errorf("%s checksum %#x, want %#x", c.name, got, c.want)
		}
	}
}
