// Package mapmatch aligns raw GPS trajectories to a road network.
//
// The paper delegates this step to existing map-matching tools (Valhalla);
// here we implement a compact HMM matcher in the style of Newson & Krumm:
// each GPS point emits candidate road segments weighted by a Gaussian of
// the projection distance, transitions are weighted by how well the
// on-network route length agrees with the great-circle distance between
// consecutive points, and the Viterbi algorithm selects the most likely
// segment sequence. Gaps between matched segments are filled with shortest
// paths, and per-segment time intervals are recovered by linear
// interpolation — exactly the construction of the paper's Section 2
// (spatio-temporal paths ⟨eᵢ, [tᵢ[1], tᵢ[−1]]⟩ and position ratios).
//
// The binaries snap OD endpoints with MatchPointCtx and decode live probe
// streams with a Tracker (session.go, tracker.go). The offline matcher
// (hmm.go) is linked into none of them yet.
package mapmatch

import (
	"context"
	"fmt"

	"deepod/internal/geo"
	"deepod/internal/obs"
	"deepod/internal/roadnet"
)

// Config tunes the HMM matcher.
type Config struct {
	// SigmaMeters is the GPS noise standard deviation (emission model).
	SigmaMeters float64
	// BetaMeters scales the transition penalty on route-vs-line mismatch.
	BetaMeters float64
	// MaxCandidates bounds the candidate segments per point.
	MaxCandidates int
	// IndexCellMeters is the spatial index cell size.
	IndexCellMeters float64
}

// DefaultConfig returns parameters that work well for the synthetic cities
// (GPS noise ~10 m, 250 m blocks).
func DefaultConfig() Config {
	return Config{SigmaMeters: 15, BetaMeters: 30, MaxCandidates: 6, IndexCellMeters: 150}
}

// Matcher matches raw trajectories and standalone points to a road network.
type Matcher struct {
	g   *roadnet.Graph
	idx *roadnet.EdgeIndex
	cfg Config
	// reference, nil outside tests, gives each session scratch the
	// single-target route search the search trees replaced.
	reference func() findFunc
}

// New builds a matcher over g.
func New(g *roadnet.Graph, cfg Config) (*Matcher, error) {
	if cfg.SigmaMeters <= 0 || cfg.BetaMeters <= 0 {
		return nil, fmt.Errorf("mapmatch: sigma and beta must be positive")
	}
	if cfg.MaxCandidates <= 0 {
		cfg.MaxCandidates = 6
	}
	if cfg.IndexCellMeters <= 0 {
		cfg.IndexCellMeters = 150
	}
	idx, err := roadnet.NewEdgeIndex(g, cfg.IndexCellMeters)
	if err != nil {
		return nil, err
	}
	return &Matcher{g: g, idx: idx, cfg: cfg}, nil
}

// MatchPointCtx snaps a single point (an OD endpoint) to its best road
// segment, returning the segment and the fraction along it. The
// mapmatch.point span keeps its parent link inside a traced request.
func (m *Matcher) MatchPointCtx(ctx context.Context, p geo.Point) (roadnet.EdgeID, float64, error) {
	_, span := obs.StartSpan(ctx, "mapmatch.point")
	defer span.End()
	c, err := m.idx.NearestEdge(p)
	if err != nil {
		return 0, 0, err
	}
	return c.Edge, c.Frac, nil
}
