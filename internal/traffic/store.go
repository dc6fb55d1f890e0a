// Package traffic is the live traffic state of the serving system: GPS
// probes POSTed to the firehose endpoint are incrementally map-matched into
// per-segment speed observations (internal/mapmatch sessions) which
// accumulate in a sharded per-edge rolling speed store. The serve path
// reads copy-on-read snapshots of the store and merges them over the
// model's training-time congestion prior, so estimates react to conditions
// the model has never seen — the real-time counterpart of the paper's
// traffic-condition feature (§4.5), which is otherwise frozen at training
// time.
//
// All timestamps in this package are sim-seconds (seconds since the
// dataset's base time), matching probe payloads and OD departure times.
// Freshness is therefore judged against the store's high-water probe time,
// not the wall clock: replayed historical data and live feeds both work.
package traffic

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"deepod/internal/obs"
	"deepod/internal/roadnet"
)

// StoreConfig tunes the per-edge rolling speed store.
type StoreConfig struct {
	// WindowSec is the width of one aggregation window (default 60).
	WindowSec float64
	// Windows is the ring length per edge (default 5): observations older
	// than Windows×WindowSec are evicted by ring rotation.
	Windows int
	// Shards is the stripe count for write locking, rounded up to a power
	// of two (default 16).
	Shards int
	// Decay is the per-window age discount applied when aggregating the
	// ring into a speed (default 0.7): the freshest window has weight 1,
	// one window back 0.7, then 0.49, …
	Decay float64
	// PublishEverySec is the minimum sim-time between snapshot rebuilds
	// (default 5).
	PublishEverySec float64
	// EpochDelta is the mean relative speed change (vs the last epoch's
	// reference) that bumps the snapshot epoch and thereby invalidates
	// estimate-cache entries (default 0.05).
	EpochDelta float64
	// Registry receives tte_traffic_* metrics (default obs.Default()).
	Registry *obs.Registry
}

func (c *StoreConfig) fill() {
	if c.WindowSec <= 0 {
		c.WindowSec = 60
	}
	if c.Windows <= 0 {
		c.Windows = 5
	}
	if c.Shards <= 0 {
		c.Shards = 16
	}
	for c.Shards&(c.Shards-1) != 0 {
		c.Shards++
	}
	if c.Decay <= 0 || c.Decay > 1 {
		c.Decay = 0.7
	}
	if c.PublishEverySec <= 0 {
		c.PublishEverySec = 5
	}
	if c.EpochDelta <= 0 {
		c.EpochDelta = 0.05
	}
	if c.Registry == nil {
		c.Registry = obs.Default()
	}
}

// Snapshot is an immutable copy-on-read view of the store, published
// atomically; readers never block writers.
type Snapshot struct {
	// Epoch increments only when aggregate conditions moved by more than
	// EpochDelta since the last bump — the estimate cache keys on it.
	Epoch uint64
	// AsOfSec is the store's high-water probe time at publish.
	AsOfSec float64
	// SpeedMPS is the decayed mean speed per edge; 0 = no recent data.
	SpeedMPS []float32
	// Covered counts edges with recent data.
	Covered int
}

// Coverage returns the fraction of edges with recent data.
func (sn *Snapshot) Coverage() float64 {
	if sn == nil || len(sn.SpeedMPS) == 0 {
		return 0
	}
	return float64(sn.Covered) / float64(len(sn.SpeedMPS))
}

// Speed returns the live speed of an edge and whether data exists.
func (sn *Snapshot) Speed(e roadnet.EdgeID) (float64, bool) {
	if sn == nil || int(e) >= len(sn.SpeedMPS) || sn.SpeedMPS[e] == 0 {
		return 0, false
	}
	return float64(sn.SpeedMPS[e]), true
}

type storeShard struct {
	mu sync.Mutex
	_  [6]uint64 // pad to a cache line so shard locks don't false-share
}

// Store accumulates per-segment speed observations into a ring of
// time-decayed windows per edge. Writes take one striped mutex; reads go
// through atomically published snapshots.
type Store struct {
	cfg    StoreConfig
	nedges int
	mask   uint32
	shards []storeShard

	// Dense per-edge state, guarded by the edge's shard lock. meters/secs
	// are edge-major rings: edge e's window slot w lives at e*Windows+w.
	lastWin []int64
	meters  []float64
	secs    []float64

	highWater atomic.Uint64 // float64 bits; max observation time seen
	recorded  atomic.Uint64
	late      atomic.Uint64

	snap       atomic.Pointer[Snapshot]
	publishing atomic.Bool
	lastPub    atomic.Uint64 // float64 bits
	epoch      atomic.Uint64
	publishes  atomic.Uint64
	epochMu    sync.Mutex
	epochRef   []float32 // speeds at the last epoch bump

	mRecorded  *obs.Counter
	mLate      *obs.Counter
	mPublishes *obs.Counter
	mEpoch     *obs.Gauge
	mCovered   *obs.Gauge
	mHighWater *obs.Gauge
}

// NewStore builds a store over the graph's edge set.
func NewStore(g *roadnet.Graph, cfg StoreConfig) (*Store, error) {
	cfg.fill()
	n := g.NumEdges()
	if n == 0 {
		return nil, fmt.Errorf("traffic: graph has no edges")
	}
	reg := cfg.Registry
	reg.Help("tte_traffic_obs_total", "Per-segment speed observations recorded, by result.")
	reg.Help("tte_traffic_publishes_total", "Store snapshot rebuilds.")
	reg.Help("tte_traffic_epoch", "Current traffic epoch (bumps when conditions shift).")
	reg.Help("tte_traffic_edges_covered", "Edges with recent speed data in the published snapshot.")
	reg.Help("tte_traffic_high_water_sec", "Newest observation time seen, sim-seconds.")
	s := &Store{
		cfg:        cfg,
		nedges:     n,
		mask:       uint32(cfg.Shards - 1),
		shards:     make([]storeShard, cfg.Shards),
		lastWin:    make([]int64, n),
		meters:     make([]float64, n*cfg.Windows),
		secs:       make([]float64, n*cfg.Windows),
		mRecorded:  reg.Counter("tte_traffic_obs_total", "result", "recorded"),
		mLate:      reg.Counter("tte_traffic_obs_total", "result", "late"),
		mPublishes: reg.Counter("tte_traffic_publishes_total"),
		mEpoch:     reg.Gauge("tte_traffic_epoch"),
		mCovered:   reg.Gauge("tte_traffic_edges_covered"),
		mHighWater: reg.Gauge("tte_traffic_high_water_sec"),
	}
	for i := range s.lastWin {
		s.lastWin[i] = math.MinInt64 / 2 // "never written"
	}
	return s, nil
}

// Record accumulates one observation: the vehicle covered meters on edge e
// in secs seconds, ending at sim-time atSec. Zero meters with positive secs
// is a valid 0 m/s congestion observation. Observations older than the ring
// are dropped and counted as late.
func (s *Store) Record(e roadnet.EdgeID, meters, secs, atSec float64) {
	if int(e) >= s.nedges || secs <= 0 || meters < 0 {
		return
	}
	W := int64(s.cfg.Windows)
	win := int64(atSec / s.cfg.WindowSec)
	sh := &s.shards[uint32(e)&s.mask]
	sh.mu.Lock()
	lw := s.lastWin[e]
	switch {
	case win > lw:
		// Rotating forward: zero every slot the ring skipped past.
		from := win - W + 1
		if lw+1 > from {
			from = lw + 1
		}
		for x := from; x <= win; x++ {
			slot := int(e)*s.cfg.Windows + int(((x%W)+W)%W)
			s.meters[slot], s.secs[slot] = 0, 0
		}
		s.lastWin[e] = win
	case win <= lw-W:
		sh.mu.Unlock()
		s.late.Add(1)
		s.mLate.Inc()
		return
	}
	slot := int(e)*s.cfg.Windows + int(((win%W)+W)%W)
	s.meters[slot] += meters
	s.secs[slot] += secs
	sh.mu.Unlock()
	s.recorded.Add(1)
	s.mRecorded.Inc()
	s.maxHighWater(atSec)
}

func (s *Store) maxHighWater(t float64) {
	for {
		old := s.highWater.Load()
		if math.Float64frombits(old) >= t {
			return
		}
		if s.highWater.CompareAndSwap(old, math.Float64bits(t)) {
			s.mHighWater.Set(t)
			return
		}
	}
}

// HighWaterSec returns the newest observation time seen.
func (s *Store) HighWaterSec() float64 {
	return math.Float64frombits(s.highWater.Load())
}

// Snapshot returns the last published view (nil before the first publish).
func (s *Store) Snapshot() *Snapshot { return s.snap.Load() }

// MaybePublish rebuilds the snapshot if PublishEverySec has elapsed since
// the last publish (in sim time). Safe to call from every ingest worker on
// every batch: at most one rebuild runs at a time and the rest return
// immediately.
func (s *Store) MaybePublish(nowSec float64) {
	last := math.Float64frombits(s.lastPub.Load())
	if s.snap.Load() != nil && nowSec-last < s.cfg.PublishEverySec {
		return
	}
	if !s.publishing.CompareAndSwap(false, true) {
		return
	}
	defer s.publishing.Store(false)
	s.publish(nowSec)
}

// Publish forces an immediate snapshot rebuild (tests, shutdown flushes).
func (s *Store) Publish(nowSec float64) { s.publish(nowSec) }

func (s *Store) publish(nowSec float64) {
	W := s.cfg.Windows
	curWin := int64(nowSec / s.cfg.WindowSec)
	speeds := make([]float32, s.nedges)
	covered := 0
	// Scan shard by shard so each lock is held for ~1/Shards of the edges.
	for si := range s.shards {
		sh := &s.shards[si]
		sh.mu.Lock()
		for e := si; e < s.nedges; e += len(s.shards) {
			lw := s.lastWin[e]
			if lw <= curWin-int64(W) {
				continue // everything in the ring has aged out
			}
			var wm, ws float64
			oldest := curWin - int64(W) + 1
			if lw-int64(W)+1 > oldest {
				oldest = lw - int64(W) + 1
			}
			for x := oldest; x <= lw; x++ {
				slot := e*W + int(((x%int64(W))+int64(W))%int64(W))
				if s.secs[slot] <= 0 {
					continue
				}
				weight := math.Pow(s.cfg.Decay, float64(curWin-x))
				wm += float64(weight * s.meters[slot])
				ws += float64(weight * s.secs[slot])
			}
			if ws > 0 {
				v := float32(wm / ws)
				if v <= 0 {
					// A pure 0 m/s ring still counts as covered data; keep
					// it distinguishable from "no data".
					v = 1e-6
				}
				speeds[e] = v
				covered++
			}
		}
		sh.mu.Unlock()
	}

	// The edge index maps each undirected street to shards by edge ID, so
	// sharded scans above see a consistent-enough view: windows are only
	// appended to, never mutated in place.
	s.epochMu.Lock()
	epoch := s.epoch.Load()
	if s.epochShifted(speeds, covered) {
		epoch = s.epoch.Add(1)
		s.epochRef = speeds
	}
	s.epochMu.Unlock()

	s.snap.Store(&Snapshot{Epoch: epoch, AsOfSec: s.HighWaterSec(), SpeedMPS: speeds, Covered: covered})
	s.lastPub.Store(math.Float64bits(nowSec))
	s.publishes.Add(1)
	s.mPublishes.Inc()
	s.mEpoch.Set(float64(epoch))
	s.mCovered.Set(float64(covered))
}

// epochShifted reports whether aggregate conditions moved enough from the
// last epoch's reference to warrant invalidating cached estimates. Called
// with epochMu held.
func (s *Store) epochShifted(speeds []float32, covered int) bool {
	if covered == 0 {
		return false
	}
	if s.epochRef == nil {
		return true // first data is always a shift from "nothing"
	}
	var rel float64
	n := 0
	for e, v := range speeds {
		ref := s.epochRef[e]
		switch {
		case v == 0 && ref == 0:
			continue
		case v == 0 || ref == 0:
			rel++ // coverage change counts as full relative shift
		default:
			rel += math.Abs(float64(v-ref)) / float64(ref)
		}
		n++
	}
	return n > 0 && rel/float64(n) > s.cfg.EpochDelta
}

// StoreStats is a point-in-time counter summary for /debug/traffic.
type StoreStats struct {
	Recorded     uint64  `json:"observations"`
	Late         uint64  `json:"late_observations"`
	Publishes    uint64  `json:"publishes"`
	Epoch        uint64  `json:"epoch"`
	Covered      int     `json:"edges_covered"`
	Edges        int     `json:"edges_total"`
	Coverage     float64 `json:"coverage"`
	HighWaterSec float64 `json:"high_water_sec"`
}

// Stats summarizes the store.
func (s *Store) Stats() StoreStats {
	st := StoreStats{
		Recorded:     s.recorded.Load(),
		Late:         s.late.Load(),
		Publishes:    s.publishes.Load(),
		Epoch:        s.epoch.Load(),
		Edges:        s.nedges,
		HighWaterSec: s.HighWaterSec(),
	}
	if sn := s.snap.Load(); sn != nil {
		st.Covered = sn.Covered
		st.Coverage = sn.Coverage()
	}
	return st
}
