package mapmatch

// Tracker multiplexes incremental matching sessions over many vehicles.
// One Tracker is owned by exactly one goroutine (the ingest layer routes
// each vehicle ID to a fixed worker by hash), so sessions share a single
// scratch and nothing locks.

import "deepod/internal/traj"

// TrackerConfig tunes per-vehicle session management.
type TrackerConfig struct {
	// SessionTTLSec evicts a vehicle whose last probe is older than this
	// many sim-seconds at Sweep time (default 300).
	SessionTTLSec float64
	// MaxSessions caps live vehicles; inserting past the cap evicts the
	// vehicle with the oldest last-probe time (default 4096).
	MaxSessions int
}

func (c *TrackerConfig) fill() {
	if c.SessionTTLSec <= 0 {
		c.SessionTTLSec = 300
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 4096
	}
}

type trackedSession struct {
	s        *Session
	lastSeen float64
}

// Tracker holds the active sessions of one ingest worker.
type Tracker struct {
	m        *Matcher
	cfg      TrackerConfig
	scr      *SessionScratch
	sessions map[string]*trackedSession
	free     []*Session // evicted sessions recycled to keep steady state alloc-free
	evicted  uint64
}

// NewTracker builds a tracker over this matcher's network.
func (m *Matcher) NewTracker(cfg TrackerConfig) *Tracker {
	cfg.fill()
	return &Tracker{
		m:        m,
		cfg:      cfg,
		scr:      m.NewSessionScratch(),
		sessions: make(map[string]*trackedSession),
	}
}

// SessionTTLSec returns the idle TTL the tracker evicts by, defaults
// applied.
func (t *Tracker) SessionTTLSec() float64 { return t.cfg.SessionTTLSec }

// Advance feeds one probe of the named vehicle, creating its session on
// first sight. Returned observations alias tracker buffers and are valid
// until the vehicle's next Advance.
func (t *Tracker) Advance(vehicle string, pt traj.GPSPoint) ([]SegObs, error) {
	ts, ok := t.sessions[vehicle]
	if !ok {
		if len(t.sessions) >= t.cfg.MaxSessions {
			t.evictOldest()
		}
		var s *Session
		if n := len(t.free); n > 0 {
			s = t.free[n-1]
			t.free = t.free[:n-1]
			s.started = false
		} else {
			s = t.m.newSession(t.scr)
		}
		ts = &trackedSession{s: s}
		t.sessions[vehicle] = ts
	}
	obs, err := ts.s.Advance(pt)
	if err == nil {
		ts.lastSeen = pt.T
	}
	return obs, err
}

// Sweep evicts every session idle longer than the TTL relative to nowSec
// (sim time) and returns how many were dropped.
func (t *Tracker) Sweep(nowSec float64) int {
	n := 0
	for v, ts := range t.sessions {
		if nowSec-ts.lastSeen > t.cfg.SessionTTLSec {
			t.release(v, ts)
			n++
		}
	}
	return n
}

// Sessions returns the number of live vehicle sessions.
func (t *Tracker) Sessions() int { return len(t.sessions) }

// Evicted returns the total sessions dropped by TTL sweeps and cap evictions.
func (t *Tracker) Evicted() uint64 { return t.evicted }

func (t *Tracker) evictOldest() {
	var (
		victim   string
		victimTS *trackedSession
	)
	for v, ts := range t.sessions {
		if victimTS == nil || ts.lastSeen < victimTS.lastSeen {
			victim, victimTS = v, ts
		}
	}
	if victimTS != nil {
		t.release(victim, victimTS)
	}
}

func (t *Tracker) release(vehicle string, ts *trackedSession) {
	delete(t.sessions, vehicle)
	t.evicted++
	if len(t.free) < 64 {
		t.free = append(t.free, ts.s)
	}
}
