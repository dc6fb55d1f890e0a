package traffic

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"deepod/internal/geo"
	"deepod/internal/mapmatch"
	"deepod/internal/obs"
	"deepod/internal/traj"
)

// Probe is one GPS report on the firehose wire (NDJSON body of
// POST /probes). T is sim-seconds since the dataset base.
type Probe struct {
	Vehicle string  `json:"vehicle"`
	X       float64 `json:"x"`
	Y       float64 `json:"y"`
	T       float64 `json:"t"`
}

// IngestConfig tunes the probe ingest pipeline.
type IngestConfig struct {
	// Workers is the matching worker count (default 1). Each worker owns
	// its vehicles exclusively (hash routing), so matching never locks.
	Workers int
	// QueueDepth is the per-worker queue capacity in batches (default 64).
	// Full queues shed: the firehose must never apply backpressure to the
	// serving process.
	QueueDepth int
	// Registry receives tte_traffic_* metrics (default obs.Default()).
	Registry *obs.Registry
}

func (c *IngestConfig) fill() {
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.Registry == nil {
		c.Registry = obs.Default()
	}
}

// IngestStats is a point-in-time counter summary for /debug/traffic.
type IngestStats struct {
	Accepted   uint64 `json:"probes_accepted"`
	Shed       uint64 `json:"probes_shed"`
	OutOfOrder uint64 `json:"probes_out_of_order"`
	Duplicate  uint64 `json:"probes_duplicate"`
	Future     uint64 `json:"probes_future"`
	Sessions   int    `json:"sessions"`
	Evicted    uint64 `json:"sessions_evicted"`
	Workers    int    `json:"workers"`
}

// Ingestor fans probe batches out to matching workers by vehicle hash.
// Each worker runs its vehicles' map-matching sessions and feeds the
// emitted per-segment observations into the store.
// ingestWork is one queue element: a probe batch, or a flush request when
// ack is non-nil.
type ingestWork struct {
	probes []Probe
	ack    chan<- struct{}
}

type Ingestor struct {
	cfg   IngestConfig
	store *Store
	chans []chan ingestWork
	wg    sync.WaitGroup

	accepted   atomic.Uint64
	shed       atomic.Uint64
	outOfOrder atomic.Uint64
	duplicate  atomic.Uint64
	future     atomic.Uint64
	sessions   []atomic.Uint64 // per worker: live sessions (low) — read loosely
	evicted    []atomic.Uint64

	mAccepted *obs.Counter
	mShed     *obs.Counter
	mOOO      *obs.Counter
	mDup      *obs.Counter
	mFuture   *obs.Counter
	mSessions *obs.Gauge
}

// NewIngestor starts the worker pool. Close releases it.
func NewIngestor(m *mapmatch.Matcher, store *Store, cfg IngestConfig) (*Ingestor, error) {
	cfg.fill()
	if m == nil || store == nil {
		return nil, fmt.Errorf("traffic: ingestor needs a matcher and a store")
	}
	reg := cfg.Registry
	reg.Help("tte_traffic_probes_total", "GPS probes received on the firehose, by result.")
	reg.Help("tte_traffic_sessions", "Live vehicle map-matching sessions.")
	in := &Ingestor{
		cfg:       cfg,
		store:     store,
		chans:     make([]chan ingestWork, cfg.Workers),
		sessions:  make([]atomic.Uint64, cfg.Workers),
		evicted:   make([]atomic.Uint64, cfg.Workers),
		mAccepted: reg.Counter("tte_traffic_probes_total", "result", "accepted"),
		mShed:     reg.Counter("tte_traffic_probes_total", "result", "shed"),
		mOOO:      reg.Counter("tte_traffic_probes_total", "result", "out_of_order"),
		mDup:      reg.Counter("tte_traffic_probes_total", "result", "duplicate"),
		mFuture:   reg.Counter("tte_traffic_probes_total", "result", "future"),
		mSessions: reg.Gauge("tte_traffic_sessions"),
	}
	for w := 0; w < cfg.Workers; w++ {
		in.chans[w] = make(chan ingestWork, cfg.QueueDepth)
		in.wg.Add(1)
		go in.work(w, m)
	}
	return in, nil
}

// Ingest routes a probe batch to the matching workers and returns how many
// probes were accepted vs shed. The batch is not retained; per-worker
// sub-batches are copied out. Never blocks: a full worker queue sheds that
// worker's share of the batch.
func (in *Ingestor) Ingest(batch []Probe) (accepted, shed int) {
	if len(batch) == 0 {
		return 0, 0
	}
	nw := uint32(len(in.chans))
	if nw == 1 {
		return in.send(0, append([]Probe(nil), batch...))
	}
	parts := make([][]Probe, nw)
	for _, p := range batch {
		w := vehicleHash(p.Vehicle) % nw
		parts[w] = append(parts[w], p)
	}
	for w, part := range parts {
		if len(part) == 0 {
			continue
		}
		a, s := in.send(w, part)
		accepted += a
		shed += s
	}
	return accepted, shed
}

func (in *Ingestor) send(w int, part []Probe) (accepted, shed int) {
	select {
	case in.chans[w] <- ingestWork{probes: part}:
		in.accepted.Add(uint64(len(part)))
		in.mAccepted.Add(uint64(len(part)))
		return len(part), 0
	default:
		in.shed.Add(uint64(len(part)))
		in.mShed.Add(uint64(len(part)))
		return 0, len(part)
	}
}

// Drain blocks until every batch queued before the call has been matched
// and recorded, then force-publishes a snapshot. Test and benchmark hook —
// unlike Ingest it may block on full queues.
func (in *Ingestor) Drain() {
	done := make(chan struct{}, len(in.chans))
	for _, ch := range in.chans {
		ch <- ingestWork{ack: done}
	}
	for range in.chans {
		<-done
	}
	in.store.Publish(in.store.HighWaterSec())
}

// Close stops the workers. Queued batches are dropped.
func (in *Ingestor) Close() {
	for _, ch := range in.chans {
		close(ch)
	}
	in.wg.Wait()
}

// Stats summarizes the ingest pipeline.
func (in *Ingestor) Stats() IngestStats {
	st := IngestStats{
		Accepted:   in.accepted.Load(),
		Shed:       in.shed.Load(),
		OutOfOrder: in.outOfOrder.Load(),
		Duplicate:  in.duplicate.Load(),
		Future:     in.future.Load(),
		Workers:    in.cfg.Workers,
	}
	for w := range in.sessions {
		st.Sessions += int(in.sessions[w].Load())
		st.Evicted += in.evicted[w].Load()
	}
	return st
}

// Status summarizes the whole live pipeline — ingest counters plus the
// store's coverage and epoch — as the /debug/traffic payload and the
// /readyz warm-state detail. "warm" means the published snapshot covers at
// least one edge: estimates are flowing through the live channel rather
// than the prior.
func (in *Ingestor) Status() map[string]any {
	ig := in.Stats()
	st := in.store.Stats()
	return map[string]any{
		"ingest": ig,
		"store":  st,
		"warm":   st.Covered > 0,
	}
}

// work is worker w's loop. Its clock is the later of its newest accepted
// probe and the store's high water (other workers' observations). A probe
// more than the store's ring span (Windows × WindowSec) ahead of that clock
// is dropped and counted as future before it reaches the tracker, the
// clock or the store: accepted, it would carry the publish clock and the
// store's high water past every in-range observation, and the live
// snapshot would stay empty until the feed caught up with it. With no clock
// yet (zero) the probe starts it. A second vehicle's future probe within
// the span of the last one dropped is accepted instead: a whole fleet ahead
// of the clock is a feed resuming after a gap longer than the span, not one
// vehicle's bad clock.
func (in *Ingestor) work(w int, m *mapmatch.Matcher) {
	defer in.wg.Done()
	// Sessions take the tracker's defaults; each worker evicts idle
	// vehicles once per session TTL of sim time.
	tr := m.NewTracker(mapmatch.TrackerConfig{})
	span := float64(in.store.cfg.Windows) * in.store.cfg.WindowSec
	lastSweep := 0.0
	maxT := 0.0
	var dropped Probe // the last future probe, when anyDropped
	anyDropped := false
	for wk := range in.chans[w] {
		if wk.ack != nil {
			wk.ack <- struct{}{}
			continue
		}
		batch := wk.probes
		for i := range batch {
			p := &batch[i]
			clock := max(maxT, in.store.HighWaterSec())
			ahead := clock > 0 && p.T-clock > span
			fleet := anyDropped && p.Vehicle != dropped.Vehicle && math.Abs(p.T-dropped.T) <= span
			if ahead && !fleet {
				dropped, anyDropped = *p, true
				in.future.Add(1)
				in.mFuture.Inc()
				continue
			}
			obsList, err := tr.Advance(p.Vehicle, traj.GPSPoint{Pos: geo.Point{X: p.X, Y: p.Y}, T: p.T})
			switch err {
			case nil:
			case mapmatch.ErrOutOfOrder:
				in.outOfOrder.Add(1)
				in.mOOO.Inc()
				continue
			case mapmatch.ErrDuplicate:
				in.duplicate.Add(1)
				in.mDup.Inc()
				continue
			default:
				continue
			}
			if p.T > maxT {
				maxT = p.T
			}
			for _, o := range obsList {
				in.store.Record(o.Edge, o.Meters, o.ExitSec-o.EnterSec, o.ExitSec)
			}
		}
		if maxT-lastSweep >= tr.SessionTTLSec() {
			tr.Sweep(maxT)
			lastSweep = maxT
		}
		in.sessions[w].Store(uint64(tr.Sessions()))
		in.evicted[w].Store(tr.Evicted())
		in.mSessions.Set(in.sessionsTotal())
		in.store.MaybePublish(maxT)
	}
}

func (in *Ingestor) sessionsTotal() float64 {
	var n uint64
	for w := range in.sessions {
		n += in.sessions[w].Load()
	}
	return float64(n)
}

// vehicleHash is FNV-1a over the vehicle ID: the worker routing must be
// deterministic so a vehicle's session always lives on one goroutine.
func vehicleHash(v string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(v); i++ {
		h ^= uint32(v[i])
		h *= 16777619
	}
	return h
}

// staleness helper shared by the feature source and /debug endpoint.
func staleness(departSec, asOfSec float64) float64 {
	return math.Abs(departSec - asOfSec)
}
