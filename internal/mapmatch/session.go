package mapmatch

// Streaming (sessionized) map matching. The batch matcher (MatchCtx) runs full
// Viterbi over a complete trace and pays a Dijkstra per candidate transition
// — fine for offline training data, impossible for a live GPS probe
// firehose. A Session instead decodes one point at a time over a bounded
// candidate frontier with hop-limited local route search: probes arrive
// every few seconds, so consecutive points are on the same or a nearby
// segment and a full shortest-path search buys nothing. Each accepted point
// emits per-segment speed observations (SegObs) — the per-link aggregation
// feeding the traffic store.
//
// A Tracker owns the sessions of many vehicles (keyed by vehicle ID) with
// TTL and capacity eviction. Neither Session nor Tracker is safe for
// concurrent use: the ingest layer routes each vehicle to a fixed worker by
// hash, so all state stays goroutine-confined and lock-free.

import (
	"errors"
	"math"

	"deepod/internal/geo"
	"deepod/internal/roadnet"
	"deepod/internal/traj"
)

// Sentinel errors for probe points a session drops without corrupting its
// state. Callers count them; the session remains usable.
var (
	// ErrOutOfOrder means the point's timestamp precedes the session's last
	// accepted point.
	ErrOutOfOrder = errors.New("mapmatch: probe timestamp out of order")
	// ErrDuplicate means the point carries the same timestamp as the last
	// accepted point (retransmitted or duplicated upstream).
	ErrDuplicate = errors.New("mapmatch: duplicate probe timestamp")
)

// SegObs is one per-segment observation emitted by a session: the vehicle
// covered Meters on Edge during [EnterSec, ExitSec]. Meters may be zero
// (a vehicle stopped in traffic is a real 0 m/s observation).
type SegObs struct {
	Edge     roadnet.EdgeID
	EnterSec float64
	ExitSec  float64
	Meters   float64
}

// The incremental decoder's bounds.
const (
	// sessionCandidates bounds the decoder frontier per point: the batch
	// matcher's 6 buys little on streaming data and costs k² route
	// searches per probe.
	sessionCandidates = 4
	// sessionHops bounds the local route search between consecutive
	// points, in edges. Probes further apart re-anchor the session instead
	// of searching the whole network.
	sessionHops = 4
	// maxSpeedMPS discards transitions implying impossible speeds
	// (≈ 180 km/h): GPS glitches must not poison the per-edge speed
	// statistics.
	maxSpeedMPS = 50
	// sessionExpansions caps route-search work per transition.
	sessionExpansions = 64
)

// SessionScratch holds the reusable buffers shared by every session of one
// goroutine (one Tracker). Confined to that goroutine.
type SessionScratch struct {
	near  *roadnet.NearestScratch
	trees searchTrees
	find  findFunc // trees.find
	route []roadnet.EdgeID
}

// NewSessionScratch builds scratch buffers for sessions of this matcher.
func (m *Matcher) NewSessionScratch() *SessionScratch {
	scr := &SessionScratch{near: m.idx.NewScratch()}
	scr.find = scr.trees.find
	if m.reference != nil {
		scr.find = m.reference()
	}
	return scr
}

// streamState is one frontier entry: a candidate segment position with its
// cumulative log-probability and the frontier index it chained from.
type streamState struct {
	cand roadnet.Candidate
	logp float64
	prev int // index into the previous frontier; -1 = re-anchored
}

// Session is the incremental matcher state of one vehicle.
type Session struct {
	m       *Matcher
	scr     *SessionScratch
	front   []streamState
	spare   []streamState
	obsBuf  []SegObs
	lastT   float64
	lastPos geo.Point
	started bool
}

// newSession builds a session on scr, which the sessions of one goroutine
// share.
func (m *Matcher) newSession(scr *SessionScratch) *Session {
	return &Session{m: m, scr: scr}
}

// Advance feeds the next GPS point of this vehicle and returns the
// per-segment observations implied by the movement since the previous
// point. The returned slice aliases session buffers and is valid only until
// the next Advance. The first point anchors the session and emits nothing;
// points failing validation return ErrOutOfOrder / ErrDuplicate and are
// dropped without touching decoder state.
func (s *Session) Advance(pt traj.GPSPoint) ([]SegObs, error) {
	if s.started {
		if pt.T < s.lastT {
			return nil, ErrOutOfOrder
		}
		if pt.T == s.lastT {
			return nil, ErrDuplicate
		}
	}
	cands := s.m.idx.NearestInto(pt.Pos, sessionCandidates, s.scr.near)
	if len(cands) == 0 {
		// Off-grid point (shouldn't happen inside padded bounds): re-anchor
		// on the next point.
		s.started = false
		return nil, nil
	}
	if !s.started {
		s.anchor(pt, cands)
		return nil, nil
	}

	dt := pt.T - s.lastT
	straight := geo.Dist(s.lastPos, pt.Pos)
	sigma2 := 2 * s.m.cfg.SigmaMeters * s.m.cfg.SigmaMeters

	next := s.spare[:0]
	anyLinked := false
	for _, c := range cands {
		emit := -float64(c.Dist*c.Dist) / sigma2
		best := math.Inf(-1)
		bestPrev := -1
		for pj := range s.front {
			ps := &s.front[pj]
			meters, ok := s.routeLen(ps.cand, c)
			if !ok || meters/dt > maxSpeedMPS {
				continue
			}
			trans := -math.Abs(meters-straight) / s.m.cfg.BetaMeters
			if score := ps.logp + trans + emit; score > best {
				best, bestPrev = score, pj
			}
		}
		if bestPrev == -1 {
			// Unreachable from the whole frontier within sessionHops: keep the
			// candidate alive with a heavy penalty so one glitchy point
			// doesn't kill the session, but emit nothing through it.
			best = s.maxLogp() + emit - 50
		} else {
			anyLinked = true
		}
		next = append(next, streamState{cand: c, logp: best, prev: bestPrev})
	}

	// Decode: emit the winning candidate's transition before the frontier
	// swap invalidates its back pointer.
	obs := s.obsBuf[:0]
	wi := 0
	for i := range next {
		if next[i].logp > next[wi].logp {
			wi = i
		}
	}
	if w := &next[wi]; anyLinked && w.prev >= 0 {
		obs = s.emit(obs, s.front[w.prev].cand, w.cand, s.lastT, pt.T)
	}

	// Renormalize so log-probabilities never drift toward -inf, then swap
	// the double buffer.
	maxL := next[0].logp
	for i := range next {
		if next[i].logp > maxL {
			maxL = next[i].logp
		}
	}
	for i := range next {
		next[i].logp -= maxL
		next[i].prev = -1 // consumed; next step links against this frontier
	}
	s.spare, s.front = s.front, next
	s.lastT, s.lastPos, s.obsBuf = pt.T, pt.Pos, obs
	if !anyLinked {
		// Every candidate teleported: the vehicle jumped (tunnel, outage).
		// The penalized frontier re-anchors matching at the new position.
		s.started = true
	}
	return obs, nil
}

// anchor initializes the frontier from the first (or re-anchoring) point.
func (s *Session) anchor(pt traj.GPSPoint, cands []roadnet.Candidate) {
	sigma2 := 2 * s.m.cfg.SigmaMeters * s.m.cfg.SigmaMeters
	s.front = s.front[:0]
	for _, c := range cands {
		s.front = append(s.front, streamState{cand: c, logp: -float64(c.Dist*c.Dist) / sigma2, prev: -1})
	}
	s.lastT, s.lastPos, s.started = pt.T, pt.Pos, true
}

func (s *Session) maxLogp() float64 {
	best := math.Inf(-1)
	for i := range s.front {
		if s.front[i].logp > best {
			best = s.front[i].logp
		}
	}
	if math.IsInf(best, -1) {
		return 0
	}
	return best
}

// emit appends the per-segment observations of the transition a→b over
// [t0, t1]: a's partial remainder, the intermediate segments of the local
// route, and b's partial prefix, with the time span split proportionally to
// the meters covered on each segment.
func (s *Session) emit(obs []SegObs, a, b roadnet.Candidate, t0, t1 float64) []SegObs {
	g := s.m.g
	type share struct {
		edge   roadnet.EdgeID
		meters float64
	}
	var shares [2 + maxSessionHops]share
	n := 0
	total := 0.0
	push := func(e roadnet.EdgeID, m float64) {
		if n == len(shares) {
			return
		}
		shares[n] = share{e, m}
		n++
		total += m
	}
	if a.Edge == b.Edge && b.Frac >= a.Frac {
		push(a.Edge, float64((b.Frac-a.Frac)*g.Edges[a.Edge].Length))
	} else {
		route, ok := s.route(a, b)
		if !ok {
			return obs
		}
		push(a.Edge, float64((1-a.Frac)*g.Edges[a.Edge].Length))
		for _, e := range route {
			push(e, g.Edges[e].Length)
		}
		push(b.Edge, float64(b.Frac*g.Edges[b.Edge].Length))
	}
	dt := t1 - t0
	if total <= 0 {
		// Stationary across an edge boundary artifact: attribute the whole
		// interval to the destination segment as a 0 m/s observation.
		return append(obs, SegObs{Edge: b.Edge, EnterSec: t0, ExitSec: t1})
	}
	now := t0
	for i := 0; i < n; i++ {
		span := dt * shares[i].meters / total
		obs = append(obs, SegObs{Edge: shares[i].edge, EnterSec: now, ExitSec: now + span, Meters: shares[i].meters})
		now += span
	}
	return obs
}

// routeLen returns the on-network meters from candidate a to candidate b
// within the session's hop bound, or ok=false when unreachable.
func (s *Session) routeLen(a, b roadnet.Candidate) (float64, bool) {
	g := s.m.g
	ea := &g.Edges[a.Edge]
	if a.Edge == b.Edge && b.Frac >= a.Frac {
		return (b.Frac - a.Frac) * ea.Length, true
	}
	eb := &g.Edges[b.Edge]
	base := float64((1-a.Frac)*ea.Length) + float64(b.Frac*eb.Length)
	if ea.To == eb.From {
		return base, true
	}
	tree, i, ok := s.scr.find(g, ea.To, eb.From, sessionHops, sessionExpansions)
	if !ok {
		return 0, false
	}
	return base + tree[i].dist, true
}

// route returns the intermediate edge sequence from candidate a's head to
// candidate b's tail (excluding both endpoint edges). The slice aliases the
// scratch and is valid until the next call.
func (s *Session) route(a, b roadnet.Candidate) ([]roadnet.EdgeID, bool) {
	g := s.m.g
	tree, i, ok := s.scr.find(g, g.Edges[a.Edge].To, g.Edges[b.Edge].From, sessionHops, sessionExpansions)
	if !ok {
		return nil, false
	}
	s.scr.route = appendRoute(s.scr.route[:0], tree, i)
	return s.scr.route, true
}

// appendRoute appends to out the edges from tree's root to its node i,
// first edge first.
func appendRoute(out []roadnet.EdgeID, tree []treeNode, i int) []roadnet.EdgeID {
	n := len(out)
	for j := i; j > 0; j = int(tree[j].parent) {
		out = append(out, roadnet.EdgeID(tree[j].via))
	}
	// Reverse in place: collected tail-first.
	for l, r := n, len(out)-1; l < r; l, r = l+1, r-1 {
		out[l], out[r] = out[r], out[l]
	}
	return out
}

// maxSessionHops bounds the emit share buffer; a sessionHops beyond it
// would only drop intermediate segments from emission, never break
// matching.
const maxSessionHops = 8

// searchTrees memoises, per start vertex, the tree a hop-limited
// Dijkstra-lite grows over out-edges when nothing stops it early. A route
// search from v to w is then a scan of v's tree for w, and gives what a
// search stopped at w gives: w enters such a search only as its stop test,
// so everything up to w's settling is a prefix of the full run, and a
// settled node is never written again. A w the full run never settles is
// one the stopped search fails on. The graph is immutable, so a tree is
// built on first use and kept; a call with other bounds drops them all.
// Memory is at most maxExp nodes per vertex searched from.
type searchTrees struct {
	byVertex  [][]treeNode // indexed by VertexID; nil until searched from
	hops, exp int          // the bounds byVertex was built for
	work      []expNode
}

// treeNode is one settled vertex of a search tree: its distance from the
// root, and the tree node and edge it was reached through (parent -1 at
// the root).
type treeNode struct {
	dist   float64
	v      int32
	parent int32
	via    int32
}

// findFunc finds `to` in the search tree grown from `from` within maxHops
// edges and maxExp expansions: the tree and the index of `to` in it, or
// ok=false when the bounds do not reach it. The tree is valid until the next
// call.
type findFunc func(g *roadnet.Graph, from, to roadnet.VertexID, maxHops, maxExp int) (tree []treeNode, i int, ok bool)

// expNode is a vertex of a search being grown.
type expNode struct {
	v      roadnet.VertexID
	dist   float64
	parent int32
	via    roadnet.EdgeID
	depth  int8
	done   bool
}

// find is the memo's findFunc: `from`'s tree is grown on its first use.
func (st *searchTrees) find(g *roadnet.Graph, from, to roadnet.VertexID, maxHops, maxExp int) ([]treeNode, int, bool) {
	if st.byVertex == nil || maxHops != st.hops || maxExp != st.exp {
		st.byVertex = make([][]treeNode, g.NumVertices())
		st.hops, st.exp = maxHops, maxExp
	}
	tree := st.byVertex[from]
	if tree == nil {
		tree = st.grow(g, from, maxHops, maxExp)
		st.byVertex[from] = tree
	}
	v := int32(to)
	for i := range tree {
		if tree[i].v == v {
			return tree, i, true
		}
	}
	return nil, 0, false
}

// grow expands from `from` until every node it reaches is settled or the
// bounds stop it, with a flat expansion list instead of a heap: expansion
// counts are tiny (≤ tens) and linear scans beat allocation. The tree is
// the nodes in the order they were added, each with the values it was
// settled with.
func (st *searchTrees) grow(g *roadnet.Graph, from roadnet.VertexID, maxHops, maxExp int) []treeNode {
	nodes := append(st.work[:0], expNode{v: from, parent: -1})
	for {
		// Pick the unsettled node with the smallest distance (linear scan —
		// the list stays tiny under the expansion cap).
		best := -1
		for i := range nodes {
			if !nodes[i].done && (best == -1 || nodes[i].dist < nodes[best].dist) {
				best = i
			}
		}
		if best == -1 {
			break
		}
		n := &nodes[best]
		n.done = true
		if int(n.depth) >= maxHops || len(nodes) >= maxExp {
			continue
		}
		for _, e := range g.Out(n.v) {
			edge := &g.Edges[e]
			nd := n.dist + edge.Length
			// Dedup by target vertex: keep only the cheaper occurrence.
			seen := false
			for i := range nodes {
				if nodes[i].v == edge.To {
					seen = true
					if !nodes[i].done && nd < nodes[i].dist {
						nodes[i].dist = nd
						nodes[i].parent = int32(best)
						nodes[i].via = e
						nodes[i].depth = n.depth + 1
					}
					break
				}
			}
			if !seen && len(nodes) < maxExp {
				nodes = append(nodes, expNode{
					v: edge.To, dist: nd, parent: int32(best), via: e, depth: n.depth + 1,
				})
				n = &nodes[best] // append may have moved the backing array
			}
		}
	}
	st.work = nodes
	tree := make([]treeNode, len(nodes))
	for i, n := range nodes {
		tree[i] = treeNode{dist: n.dist, v: int32(n.v), parent: n.parent, via: int32(n.via)}
	}
	return tree
}
