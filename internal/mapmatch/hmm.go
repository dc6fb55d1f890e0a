package mapmatch

// The offline HMM matcher: full Viterbi over a complete trace, with a
// shortest-path search per candidate transition. No binary links it yet;
// its tests pin it until it either builds the training trajectories or is
// deleted.

import (
	"context"
	"fmt"
	"math"

	"deepod/internal/geo"
	"deepod/internal/obs"
	"deepod/internal/roadnet"
	"deepod/internal/traj"
)

// MatchCtx aligns a raw trajectory to the network and returns the paper's
// trajectory representation (spatio-temporal path + position ratios). The
// mapmatch.match span and its viterbi/assemble children join the caller's
// trace.
func (m *Matcher) MatchCtx(ctx context.Context, raw *traj.Raw) (traj.Trajectory, error) {
	mctx, span := obs.StartSpan(ctx, "mapmatch.match")
	defer span.End()
	pts := raw.Points
	if len(pts) < 2 {
		return traj.Trajectory{}, fmt.Errorf("mapmatch: raw trajectory needs at least 2 points, got %d", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].T < pts[i-1].T {
			return traj.Trajectory{}, fmt.Errorf("mapmatch: timestamps decrease at index %d (%v → %v)", i, pts[i-1].T, pts[i].T)
		}
	}
	states, err := m.viterbi(mctx, raw.Points)
	if err != nil {
		return traj.Trajectory{}, err
	}
	return m.assemble(mctx, raw.Points, states)
}

type candState struct {
	cand roadnet.Candidate
	// viterbi bookkeeping
	logp float64
	prev int
	// route from the previous chosen candidate (edge ids, excluding the
	// previous candidate's own edge, including this one's).
	route []roadnet.EdgeID
}

// viterbi returns one candidate per GPS point.
func (m *Matcher) viterbi(ctx context.Context, pts []traj.GPSPoint) ([]roadnet.Candidate, error) {
	_, span := obs.StartSpan(ctx, "mapmatch.viterbi")
	defer span.End()
	sigma2 := 2 * m.cfg.SigmaMeters * m.cfg.SigmaMeters
	prevStates := []candState{}
	allStates := make([][]candState, len(pts))

	for i, pt := range pts {
		cands := m.idx.Nearest(pt.Pos, m.cfg.MaxCandidates)
		if len(cands) == 0 {
			return nil, fmt.Errorf("mapmatch: no candidate segments near point %d", i)
		}
		cur := make([]candState, len(cands))
		for j, c := range cands {
			emit := -float64(c.Dist*c.Dist) / sigma2
			if i == 0 {
				cur[j] = candState{cand: c, logp: emit, prev: -1}
				continue
			}
			best := math.Inf(-1)
			bestPrev := -1
			var bestRoute []roadnet.EdgeID
			straight := geo.Dist(pts[i-1].Pos, pt.Pos)
			for pj, ps := range prevStates {
				route, routeLen, ok := m.routeBetween(ps.cand, c)
				if !ok {
					continue
				}
				trans := -math.Abs(routeLen-straight) / m.cfg.BetaMeters
				score := ps.logp + trans + emit
				if score > best {
					best, bestPrev, bestRoute = score, pj, route
				}
			}
			if bestPrev == -1 {
				// No reachable previous candidate; fall back to teleporting
				// with a heavy penalty so matching still completes on
				// degenerate inputs.
				for pj, ps := range prevStates {
					score := ps.logp + emit - 50
					if score > best {
						best, bestPrev, bestRoute = score, pj, []roadnet.EdgeID{c.Edge}
					}
				}
			}
			cur[j] = candState{cand: c, logp: best, prev: bestPrev, route: bestRoute}
		}
		allStates[i] = cur
		prevStates = cur
	}

	// Backtrack.
	last := allStates[len(pts)-1]
	bi, best := 0, math.Inf(-1)
	for j, s := range last {
		if s.logp > best {
			best, bi = s.logp, j
		}
	}
	chosen := make([]roadnet.Candidate, len(pts))
	for i := len(pts) - 1; i >= 0; i-- {
		s := allStates[i][bi]
		chosen[i] = s.cand
		bi = s.prev
	}
	return chosen, nil
}

// routeBetween returns the edge sequence from candidate a to candidate b
// (starting after a's edge unless b is on the same edge), its on-network
// length between the two projected points, and whether a route exists.
func (m *Matcher) routeBetween(a, b roadnet.Candidate) ([]roadnet.EdgeID, float64, bool) {
	ea, eb := m.g.Edges[a.Edge], m.g.Edges[b.Edge]
	if a.Edge == b.Edge {
		if b.Frac >= a.Frac {
			return nil, (b.Frac - a.Frac) * ea.Length, true
		}
		// Moving backwards along a directed edge is impossible; treat as a
		// loop via the network below.
	}
	// Shortest path from the head of a's edge to the tail of b's edge.
	p, err := roadnet.ShortestPath(m.g, ea.To, eb.From, 0, func(e roadnet.EdgeID, _ float64) float64 {
		return m.g.Edges[e].Length // distance-based matching
	})
	if err != nil {
		return nil, 0, false
	}
	length := float64((1-a.Frac)*ea.Length) + p.Cost + float64(b.Frac*eb.Length)
	route := append(append([]roadnet.EdgeID(nil), p.Edges...), b.Edge)
	return route, length, true
}

// assemble stitches the chosen candidates into a connected edge sequence
// with linearly interpolated per-segment time intervals.
func (m *Matcher) assemble(ctx context.Context, pts []traj.GPSPoint, chosen []roadnet.Candidate) (traj.Trajectory, error) {
	_, aspan := obs.StartSpan(ctx, "mapmatch.assemble")
	defer aspan.End()
	// Build the full edge sequence with, for each edge, the (time, frac)
	// anchor points we know from GPS samples.
	type anchor struct {
		t    float64
		frac float64
	}
	var edges []roadnet.EdgeID
	anchorsOf := map[int][]anchor{} // index into edges -> anchors

	push := func(e roadnet.EdgeID) int {
		if len(edges) == 0 || edges[len(edges)-1] != e {
			edges = append(edges, e)
		}
		return len(edges) - 1
	}
	idx0 := push(chosen[0].Edge)
	anchorsOf[idx0] = append(anchorsOf[idx0], anchor{t: pts[0].T, frac: chosen[0].Frac})
	for i := 1; i < len(pts); i++ {
		route, _, ok := m.routeBetween(chosen[i-1], chosen[i])
		if !ok {
			route = []roadnet.EdgeID{chosen[i].Edge}
		}
		var li int
		if len(route) == 0 {
			li = push(chosen[i].Edge) // same edge as before
		} else {
			for _, e := range route {
				li = push(e)
			}
		}
		anchorsOf[li] = append(anchorsOf[li], anchor{t: pts[i].T, frac: chosen[i].Frac})
	}

	// Distance from the trajectory start (measured along the edge sequence)
	// of each edge's tail, used to interpolate times for edges without
	// anchors.
	cum := make([]float64, len(edges)+1)
	for i, e := range edges {
		cum[i+1] = cum[i] + m.g.Edges[e].Length
	}
	// Known (distance, time) control points.
	type ctrl struct{ d, t float64 }
	var ctrls []ctrl
	for i := range edges {
		for _, a := range anchorsOf[i] {
			ctrls = append(ctrls, ctrl{d: cum[i] + float64(a.frac*m.g.Edges[edges[i]].Length), t: a.t})
		}
	}
	if len(ctrls) < 2 {
		return traj.Trajectory{}, fmt.Errorf("mapmatch: too few control points to interpolate")
	}
	// Ensure monotone distances (GPS jitter can slightly reorder them).
	for i := 1; i < len(ctrls); i++ {
		if ctrls[i].d < ctrls[i-1].d {
			ctrls[i].d = ctrls[i-1].d
		}
		if ctrls[i].t < ctrls[i-1].t {
			ctrls[i].t = ctrls[i-1].t
		}
	}
	timeAt := func(d float64) float64 {
		if d <= ctrls[0].d {
			return ctrls[0].t
		}
		for i := 1; i < len(ctrls); i++ {
			if d <= ctrls[i].d {
				span := ctrls[i].d - ctrls[i-1].d
				if span <= 0 {
					return ctrls[i].t
				}
				f := (d - ctrls[i-1].d) / span
				return ctrls[i-1].t + float64(f*(ctrls[i].t-ctrls[i-1].t))
			}
		}
		return ctrls[len(ctrls)-1].t
	}

	rStart := chosen[0].Frac
	rEnd := 1 - chosen[len(chosen)-1].Frac
	startD := cum[0] + float64(rStart*m.g.Edges[edges[0]].Length)
	endD := cum[len(edges)-1] + float64(chosen[len(chosen)-1].Frac*m.g.Edges[edges[len(edges)-1]].Length)

	steps := make([]traj.Step, len(edges))
	for i, e := range edges {
		enterD, exitD := cum[i], cum[i+1]
		if i == 0 {
			enterD = startD
		}
		if i == len(edges)-1 {
			exitD = endD
		}
		steps[i] = traj.Step{Edge: e, Enter: timeAt(enterD), Exit: timeAt(exitD)}
	}
	t := traj.Trajectory{Path: steps, RStart: rStart, REnd: rEnd}
	if err := t.Validate(m.g); err != nil {
		return traj.Trajectory{}, fmt.Errorf("mapmatch: assembled trajectory invalid: %w", err)
	}
	return t, nil
}
