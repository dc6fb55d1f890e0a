// Package core implements DeepOD, the paper's travel-time estimation model:
// an OD encoder M_O, a trajectory encoder M_T, and an estimator M_E, trained
// jointly so the hidden OD representation (code) is pulled toward the
// spatio-temporal representation of the trip's historical trajectory
// (stcode) by an auxiliary Euclidean loss (Section 3, Algorithm 1). At
// prediction time only M_O and M_E run.
package core

import (
	"fmt"
	"time"
)

// TimeInit selects how the time-slot embedding is initialized / represented
// (the Table 7 variants).
type TimeInit string

// Time-slot embedding variants of Table 7.
const (
	// TimeWeekGraph is DeepOD's default: node2vec over the directed weekly
	// temporal graph of Figure 5b.
	TimeWeekGraph TimeInit = "week-graph"
	// TimeOneHot (T-one) keeps the embedding table but skips graph
	// pre-training (random init).
	TimeOneHot TimeInit = "one-hot"
	// TimeDayGraph (T-day) pre-trains over a single-day temporal graph:
	// daily periodicity only.
	TimeDayGraph TimeInit = "day-graph"
	// TimeStamp (T-stamp) drops slots entirely and feeds raw timestamps —
	// the paper shows this is disastrous because the large magnitudes
	// dominate every other feature.
	TimeStamp TimeInit = "stamp"
)

// RoadInit selects how the road-segment embedding is initialized.
type RoadInit string

// Road-segment embedding variants of Table 7.
const (
	// RoadGraph is the default: node2vec over the trajectory-weighted line
	// graph of Figure 4.
	RoadGraph RoadInit = "line-graph"
	// RoadOneHot (R-one) skips pre-training (random init).
	RoadOneHot RoadInit = "one-hot"
)

// Config holds every hyper-parameter of DeepOD. Field names follow the
// paper's notation (Table 1 and §6.2).
type Config struct {
	// Ds and Dt are the road-segment and time-slot embedding sizes.
	Ds, Dt int
	// D1m..D9m are the layer sizes of the MLPs (Formulas 11 and 17–20);
	// D8m is forced equal to D4m so code and stcode share a latent space.
	D1m, D2m, D3m, D4m, D5m, D6m, D7m, D9m int
	// Dh is the LSTM state size; Dtraf the traffic-CNN output size.
	Dh, Dtraf int

	// SlotDelta is Δt, the time-slot size (paper default: 5 minutes).
	SlotDelta time.Duration

	// AuxWeight is w, the auxiliary-loss weight (Figure 9; 0 disables the
	// trajectory binding entirely).
	AuxWeight float64
	// AuxOneWay makes the auxiliary loss pull only the OD code toward the
	// trajectory code (the trajectory encoder receives no gradient from the
	// auxiliary loss). The paper trains both encoders jointly, which works
	// at its data scale (millions of trips); at laptop scale the symmetric
	// pull lets the trajectory encoder collapse onto the OD code and the
	// binding degenerates. One-way binding keeps the trajectory
	// representation anchored to the actual route and timing, preserving
	// the paper's mechanism (OD code learns to predict the affiliated
	// trajectory's representation). See DESIGN.md §4.
	AuxOneWay bool

	// Ablation switches (Table 4): each removes one encoding.
	NoTrajectory bool // N-st: drop M_T and the auxiliary loss
	NoSpatial    bool // N-sp: drop road-segment embeddings (raw coords instead)
	NoTemporal   bool // N-tp: drop the time-interval encoding in M_T
	NoExternal   bool // N-other: drop the external-features encoder

	// Embedding initialization variants (Table 7).
	TimeInit TimeInit
	RoadInit RoadInit
	// EmbedMethod selects the unsupervised graph-embedding algorithm used
	// to pre-train both matrices ("node2vec", "deepwalk" or "line"). The
	// paper tried all three and kept node2vec (§5).
	EmbedMethod string

	// Training hyper-parameters.
	BatchSize int
	Epochs    int
	LRInitial float64
	LRFactor  float64 // multiplied in every LREvery epochs
	LREvery   int
	ClipNorm  float64 // 0 disables gradient clipping

	// EmbedWalks / EmbedEpochs scale the node2vec pre-training effort.
	EmbedWalks, EmbedEpochs int

	// TrainWorkers shards each mini-batch (and validation sweeps, and the
	// node2vec pre-training) across this many workers. Each worker trains
	// its shard as one graph on a reusable tape, into a private gradient
	// buffer; buffers are reduced in fixed worker-index order, so a given
	// seed + worker count is bit-reproducible. 0 or 1 means serial: one
	// graph over the whole batch. See DESIGN.md "Training performance".
	TrainWorkers int

	// Seed drives parameter init and batch shuffling.
	Seed int64
}

// PaperConfig returns the hyper-parameters the paper selected in §6.2
// (Figure 8): d_s=64, d_t=64, d¹m=128, d²m=64, d_h=128, d³m=128,
// d⁴m=d⁸m=64, d⁵m=128, d⁶m=64, d⁷m=128, d⁹m=128, d_traf=128, Δt=5 min,
// batch 1024, initial LR 0.01 decayed ×0.2 every 2 epochs.
func PaperConfig() Config {
	return Config{
		Ds: 64, Dt: 64,
		D1m: 128, D2m: 64, D3m: 128, D4m: 64, D5m: 128, D6m: 64, D7m: 128, D9m: 128,
		Dh: 128, Dtraf: 128,
		SlotDelta:   5 * time.Minute,
		AuxWeight:   0.7,
		TimeInit:    TimeWeekGraph,
		RoadInit:    RoadGraph,
		EmbedMethod: "node2vec",
		BatchSize:   1024, Epochs: 10,
		LRInitial: 0.01, LRFactor: 0.2, LREvery: 2,
		ClipNorm:    5,
		EmbedWalks:  8,
		EmbedEpochs: 3,
		Seed:        1,
	}
}

// SmallConfig returns a scaled-down configuration that trains in seconds on
// one CPU core while preserving the architecture; the experiment suite uses
// it by default (DESIGN.md §4.4).
func SmallConfig() Config {
	c := PaperConfig()
	c.Ds, c.Dt = 16, 16
	c.D1m, c.D2m, c.D3m, c.D4m = 32, 16, 32, 16
	c.D5m, c.D6m, c.D7m, c.D9m = 32, 16, 32, 32
	c.Dh, c.Dtraf = 32, 16
	c.SlotDelta = 15 * time.Minute
	// The auxiliary weight is tuned by validation per dataset (§6.3); at
	// laptop scale the Figure 9 sweep lands on small w (the L2 binding
	// needs the paper's data volume to pay for itself — see DESIGN.md §4).
	c.AuxWeight = 0.1
	c.BatchSize = 32
	c.Epochs = 6
	c.LREvery = 3
	c.EmbedWalks, c.EmbedEpochs = 8, 4
	return c
}

// D8m returns the (tied) output size of MLP1, equal to D4m (§4.6:
// "the dimensions of code and stcode should be equal").
func (c Config) D8m() int { return c.D4m }

// Validate rejects inconsistent configurations.
func (c Config) Validate() error {
	pos := func(name string, v int) error {
		if v <= 0 {
			return fmt.Errorf("core: %s must be positive, got %d", name, v)
		}
		return nil
	}
	for _, check := range []struct {
		name string
		v    int
	}{
		{"Ds", c.Ds}, {"Dt", c.Dt}, {"D1m", c.D1m}, {"D2m", c.D2m},
		{"D3m", c.D3m}, {"D4m", c.D4m}, {"D5m", c.D5m}, {"D6m", c.D6m},
		{"D7m", c.D7m}, {"D9m", c.D9m}, {"Dh", c.Dh}, {"Dtraf", c.Dtraf},
		{"BatchSize", c.BatchSize}, {"Epochs", c.Epochs},
	} {
		if err := pos(check.name, check.v); err != nil {
			return err
		}
	}
	if c.SlotDelta <= 0 {
		return fmt.Errorf("core: SlotDelta must be positive, got %v", c.SlotDelta)
	}
	if c.AuxWeight < 0 || c.AuxWeight > 1 {
		return fmt.Errorf("core: AuxWeight must be in [0,1], got %v", c.AuxWeight)
	}
	if c.LRInitial <= 0 {
		return fmt.Errorf("core: LRInitial must be positive, got %v", c.LRInitial)
	}
	if c.TrainWorkers < 0 {
		return fmt.Errorf("core: TrainWorkers must be non-negative, got %d", c.TrainWorkers)
	}
	switch c.TimeInit {
	case TimeWeekGraph, TimeOneHot, TimeDayGraph, TimeStamp:
	default:
		return fmt.Errorf("core: unknown TimeInit %q", c.TimeInit)
	}
	switch c.RoadInit {
	case RoadGraph, RoadOneHot:
	default:
		return fmt.Errorf("core: unknown RoadInit %q", c.RoadInit)
	}
	switch c.EmbedMethod {
	case "node2vec", "deepwalk", "line":
	default:
		return fmt.Errorf("core: unknown EmbedMethod %q (want node2vec, deepwalk or line)", c.EmbedMethod)
	}
	return nil
}
