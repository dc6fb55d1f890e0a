// Package recorder is the serving tier's flight recorder: one structured
// "wide event" per served estimate, carrying every input that determined
// the answer — OD coordinates and their grid cells, time slot, model
// snapshot and generation, traffic epoch and live/fallback flag, cache
// hit, queue wait, latency, estimate and error class — so a bad answer
// observed in production can be reproduced and re-scored offline.
//
// The paper's core claim makes this necessary: historical trajectories
// make estimates data-dependent, so the same OD query yields different
// answers as the model generation, time slot and live-traffic epoch
// change. A metric tells you the error rate moved; a wide event tells you
// exactly which (input, model, regime) tuple produced the bad answer, and
// the replay harness (internal/replay, cmd/ttereplay) re-executes it.
//
// Capture is decided by obs.TailSampler, the policy the trace store uses:
//
//   - 100% of errors and shed requests (the events an investigation needs),
//   - the slowest-N requests per rotating window (the tail-latency set),
//   - a deterministic hash sample of the rest.
//
// Captured events land in a sharded, lock-striped, bounded in-memory ring
// (served at GET /debug/recorder) and, when a directory is configured, in
// append-only JSONL segment files with rotation and bounded retention so
// captures survive restarts. The recorder is an infer.Observer: the
// engine hands it each Do call's one event, and with no observer wired the
// engine pays a length check (infer's TestDisabledPathOverhead).
//
// Metrics:
//
//	tte_recorder_events_seen_total    every Do outcome offered for capture
//	tte_recorder_captured_total       captures, by reason (error|slow|sample)
//	tte_recorder_overwritten_total    ring slots overwritten before being read
//	tte_recorder_disk_dropped_total   captured events the segment writer shed
//	tte_recorder_segments_total       segment files opened since start
//	tte_recorder_events               live ring occupancy
package recorder

import (
	"context"
	"errors"
	"sort"
	"sync"
	"time"

	"deepod/internal/geo"
	"deepod/internal/infer"
	"deepod/internal/obs"
)

// Event is one wide record: a served estimate with every input that
// determined it. Events are immutable once captured; the JSON shape is the
// segment-file format and the /debug/recorder payload.
type Event struct {
	// Seq orders events process-wide (monotonic, starts at 1).
	Seq uint64 `json:"seq"`
	// TraceID joins the event to its /debug/traces record and log lines.
	TraceID string `json:"trace_id,omitempty"`
	// AtUnixNs is the capture wall-clock time.
	AtUnixNs int64 `json:"at_unix_ns"`

	// The request: raw coordinates plus the grid cells and time slot the
	// engine stamped on its event (-1 for a rejected input or without the
	// engine's quantizer).
	Origin     geo.Point `json:"origin"`
	Dest       geo.Point `json:"dest"`
	DepartSec  float64   `json:"depart_sec"`
	OriginCell int       `json:"origin_cell"`
	DestCell   int       `json:"dest_cell"`
	Slot       int       `json:"slot"`

	// The model: which checkpoint answered, under which generation.
	Snapshot   string `json:"snapshot,omitempty"`
	Generation uint64 `json:"generation"`

	// The traffic regime: the epoch the answer was computed under and
	// whether live speeds were actually merged (false = prior fallback or
	// cache hit).
	TrafficEpoch uint64 `json:"traffic_epoch"`
	TrafficLive  bool   `json:"traffic_live,omitempty"`

	// The serving path.
	Cached      bool    `json:"cached,omitempty"`
	QueueWaitNs int64   `json:"queue_wait_ns,omitempty"`
	LatencyNs   int64   `json:"latency_ns"`
	EstimateSec float64 `json:"estimate_sec"`
	// Err is the error class ("" = served): invalid_input, overloaded,
	// queue_timeout, match, canceled, closed, internal, or error.
	Err string `json:"err,omitempty"`
	// Shed marks admission-control rejections (overloaded, queue_timeout).
	Shed bool `json:"shed,omitempty"`
	// Reason is why the event was captured: error, slow or sample.
	Reason string `json:"reason"`
}

// Config assembles a Recorder; every field defaults.
type Config struct {
	// Capacity is the total in-memory ring size in events, split across
	// shards (default 4096). Negative keeps no events in memory — segment
	// files, when configured, still capture.
	Capacity int
	// Shards is the lock-stripe count (default 8, rounded up to a power
	// of two).
	Shards int
	// SlowestN requests per Window are always captured regardless of the
	// sample rate (default 16; negative disables slow retention).
	SlowestN int
	// Window is the rotation period for the slowest-N set (default 10s).
	Window time.Duration
	// SampleRate is the probability a normal (non-error, non-slow) event
	// is captured. Taken literally: 0 keeps none, 1 keeps all. Sampling is
	// a deterministic hash of the event sequence number, so a given
	// request stream captures the same events on every run.
	SampleRate float64

	// Dir, when set, mirrors captured events to append-only JSONL segment
	// files <Dir>/seg-NNNNNN.jsonl with rotation and retention.
	Dir string
	// SegmentEvents rotates the live segment after this many events
	// (default 4096).
	SegmentEvents int
	// MaxSegments bounds retention: opening a segment beyond this count
	// deletes the oldest file (default 8).
	MaxSegments int
	// Meta is stamped into every segment header (city, model path, ...),
	// so a segment names the serving context it was recorded under.
	Meta map[string]string

	// Registry receives tte_recorder_* metrics (default obs.Default()).
	Registry *obs.Registry
	// Now overrides the clock (tests); defaults to time.Now.
	Now func() time.Time
}

// shard is one lock stripe of the ring. Shards are chosen by sequence
// number, so concurrent captures contend on different locks. ring is nil
// when the recorder keeps no events in memory.
type shard struct {
	mu   sync.Mutex
	ring *obs.Ring[Event]
}

// Recorder captures wide events under the tail-sampling policy. Construct
// with New; it is an infer.Observer. Close flushes and closes
// the segment writer; the in-memory ring stays readable.
type Recorder struct {
	cfg    Config
	now    func() time.Time
	tail   *obs.TailSampler // shared across shards: "slowest this window" means slowest among all traffic
	shards []*shard
	mask   uint64
	disk   *segmentWriter // nil without Config.Dir

	overwritten *obs.Counter
	entries     *obs.Gauge
}

// New validates cfg and builds the recorder, opening the segment directory
// eagerly when configured so a bad path fails at startup.
func New(cfg Config) (*Recorder, error) {
	if cfg.Capacity == 0 {
		cfg.Capacity = 4096
	}
	if cfg.Capacity < 0 {
		cfg.Capacity = 0
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 8
	}
	shards := 1
	for shards < cfg.Shards {
		shards <<= 1
	}
	if cfg.SegmentEvents <= 0 {
		cfg.SegmentEvents = 4096
	}
	if cfg.MaxSegments <= 0 {
		cfg.MaxSegments = 8
	}
	if cfg.Registry == nil {
		cfg.Registry = obs.Default()
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	reg := cfg.Registry
	reg.Help("tte_recorder_events_seen_total", "Serve outcomes offered to the flight recorder.")
	reg.Help("tte_recorder_captured_total", "Wide events captured, by reason.")
	reg.Help("tte_recorder_overwritten_total", "Ring slots overwritten by newer captures.")
	reg.Help("tte_recorder_events", "Wide events live in the in-memory ring.")
	r := &Recorder{
		cfg: cfg,
		now: cfg.Now,
		tail: obs.NewTailSampler(reg, "tte_recorder_events_seen_total", "tte_recorder_captured_total",
			cfg.SlowestN, cfg.Window, cfg.SampleRate, cfg.Now),
		mask:        uint64(shards - 1),
		overwritten: reg.Counter("tte_recorder_overwritten_total"),
		entries:     reg.Gauge("tte_recorder_events"),
	}
	r.shards = make([]*shard, shards)
	for i := range r.shards {
		r.shards[i] = &shard{}
		if cfg.Capacity > 0 {
			r.shards[i].ring = obs.NewRing[Event](cfg.Capacity / shards)
		}
	}
	if cfg.Dir != "" {
		w, err := newSegmentWriter(cfg.Dir, cfg.SegmentEvents, cfg.MaxSegments, cfg.Meta, reg, cfg.Now)
		if err != nil {
			return nil, err
		}
		r.disk = w
	}
	return r, nil
}

// ClassifyError maps an engine error onto the wide-event error class
// ("" for nil). Shared with the replay harness so a re-executed request's
// outcome is classified exactly the way the recording classified it.
func ClassifyError(err error) (class string, shed bool) {
	switch {
	case err == nil:
		return "", false
	case errors.Is(err, infer.ErrOverloaded):
		return "overloaded", true
	case errors.Is(err, infer.ErrQueueTimeout):
		return "queue_timeout", true
	case errors.Is(err, infer.ErrInvalidInput):
		return "invalid_input", false
	case errors.Is(err, infer.ErrClosed):
		return "closed", false
	case errors.Is(err, infer.ErrInternal):
		return "internal", false
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return "canceled", false
	default:
		var matchErr *infer.MatchError
		if errors.As(err, &matchErr) {
			return "match", false
		}
		return "error", false
	}
}

// ObserveServe captures one finished request under the policy and hands
// out no prediction ID. It implements infer.Observer and must stay cheap:
// a policy decision for every event, storage only for kept ones.
func (r *Recorder) ObserveServe(ctx context.Context, ev infer.ServeEvent) string {
	class, shed := ClassifyError(ev.Err)
	// Every error and shed request is captured: these are exactly the
	// events an incident investigation replays.
	seq, reason := r.tail.Offer(class != "", ev.Latency)
	if reason == "" {
		return ""
	}

	e := Event{
		Seq:          seq,
		TraceID:      string(obs.TraceIDFrom(ctx)),
		AtUnixNs:     r.now().UnixNano(),
		Origin:       ev.OD.Origin,
		Dest:         ev.OD.Dest,
		DepartSec:    ev.OD.DepartSec,
		OriginCell:   ev.OriginCell,
		DestCell:     ev.DestCell,
		Slot:         ev.Slot,
		Snapshot:     ev.SnapshotID,
		Generation:   ev.Generation,
		TrafficEpoch: ev.TrafficEpoch,
		TrafficLive:  ev.TrafficLive,
		Cached:       ev.Cached,
		QueueWaitNs:  ev.QueueWait.Nanoseconds(),
		LatencyNs:    ev.Latency.Nanoseconds(),
		EstimateSec:  ev.Seconds,
		Err:          class,
		Shed:         shed,
		Reason:       reason,
	}

	sh := r.shards[seq&r.mask]
	if sh.ring != nil {
		sh.mu.Lock()
		if sh.ring.Push(e) {
			r.overwritten.Inc()
		} else {
			r.entries.Add(1)
		}
		sh.mu.Unlock()
	}

	if r.disk != nil {
		r.disk.offer(e)
	}
	return ""
}

// Filter selects ring events; zero values mean "no constraint". Epoch uses
// a presence flag because 0 is a real epoch (no live traffic).
type Filter struct {
	Generation uint64
	Epoch      uint64
	HasEpoch   bool
	ErrorsOnly bool
	MinDur     time.Duration
	Limit      int
}

func (f Filter) match(e *Event) bool {
	if f.Generation != 0 && e.Generation != f.Generation {
		return false
	}
	if f.HasEpoch && e.TrafficEpoch != f.Epoch {
		return false
	}
	if f.ErrorsOnly && e.Err == "" {
		return false
	}
	if f.MinDur > 0 && e.LatencyNs < f.MinDur.Nanoseconds() {
		return false
	}
	return true
}

// Events returns captured events newest-first (by sequence), filtered.
func (r *Recorder) Events(f Filter) []Event {
	var out []Event
	for _, sh := range r.shards {
		if sh.ring == nil {
			continue
		}
		sh.mu.Lock()
		for i := 0; i < sh.ring.Len(); i++ {
			if e := sh.ring.At(i); f.match(&e) {
				out = append(out, e)
			}
		}
		sh.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq > out[j].Seq })
	if f.Limit > 0 && len(out) > f.Limit {
		out = out[:f.Limit]
	}
	return out
}

// Stats is a point-in-time counter snapshot.
type Stats struct {
	Seen           uint64 `json:"seen"`
	CapturedError  uint64 `json:"captured_error"`
	CapturedSlow   uint64 `json:"captured_slow"`
	CapturedSample uint64 `json:"captured_sample"`
	Overwritten    uint64 `json:"overwritten"`
	RingEvents     int    `json:"ring_events"`
	DiskDropped    uint64 `json:"disk_dropped"`
	DiskWritten    uint64 `json:"disk_written"`
}

// Captured is the total events kept by the policy.
func (s Stats) Captured() uint64 { return s.CapturedError + s.CapturedSlow + s.CapturedSample }

// Stats reads the recorder's counters.
func (r *Recorder) Stats() Stats {
	s := Stats{Seen: r.tail.Seen(), Overwritten: r.overwritten.Value()}
	s.CapturedError, s.CapturedSlow, s.CapturedSample = r.tail.Kept()
	for _, sh := range r.shards {
		if sh.ring == nil {
			continue
		}
		sh.mu.Lock()
		s.RingEvents += sh.ring.Len()
		sh.mu.Unlock()
	}
	if r.disk != nil {
		s.DiskDropped = r.disk.dropped.Value()
		s.DiskWritten = r.disk.written.Value()
	}
	return s
}

// Segments lists the on-disk segment files, oldest first (nil without a
// configured directory).
func (r *Recorder) Segments() []SegmentInfo {
	if r.disk == nil {
		return nil
	}
	return r.disk.list()
}

// Sync flushes the live segment's buffer to disk so readers (downloads,
// replay) see every captured event written so far.
func (r *Recorder) Sync() {
	if r.disk != nil {
		r.disk.sync()
	}
}

// Close stops the segment writer, flushing and closing the live segment.
// The in-memory ring stays readable; further ObserveServe calls keep
// feeding the ring but no longer reach disk.
func (r *Recorder) Close() {
	if r.disk != nil {
		r.disk.close()
	}
}
