package infer

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"time"

	"deepod/internal/core"
	"deepod/internal/metrics"
	"deepod/internal/obs"
	"deepod/internal/roadnet"
	"deepod/internal/timeslot"
	"deepod/internal/traj"
)

// Snapshot is one immutable serving model. The engine holds the live
// snapshot behind an atomic pointer; SwapCtx installs a new one without
// blocking traffic, and in-flight batches keep the pointer they loaded, so
// they finish on the model they started with.
type Snapshot struct {
	// ID names the snapshot to operators (/version, estimate responses).
	// LoadCheckpoint uses a truncated SHA-256 of the checkpoint file.
	ID string
	// Estimate answers a matched OD on this snapshot's weights. It must be
	// safe for concurrent callers (core.Model.Estimate is; see the -race
	// test in internal/core): requests served on their callers' goroutines
	// and batches of one reach it. The context carries the request's trace
	// so model-internal spans (encode, estimate) join the request tree.
	Estimate func(ctx context.Context, od *traj.MatchedOD) float64
	// EstimateBatch answers a drained admission batch of two or more in one
	// [B×d] forward (core.EstimateBatchFusedCtx, the kernel Estimate runs at
	// B = 1, so bit-identical to per-OD Estimate calls). With it nil every
	// request goes through Estimate — stub snapshots in tests.
	EstimateBatch func(ctx context.Context, ods []traj.MatchedOD) []float64
	// Meta carries operator-facing facts merged into /version output
	// (weight count, checkpoint path, ...).
	Meta map[string]any
	// Slotter is the model's time discretizer, handed to the engine to
	// stamp each event's slot (nil for stub snapshots in tests).
	Slotter *timeslot.Slotter
	// RefDist is the training-time error distribution carried in the
	// checkpoint — the drift reference the quality monitor re-arms with on
	// every hot reload. Nil for checkpoints that predate it.
	RefDist *metrics.RefDist
	// LoadedAt is when the snapshot was built (set by SwapCtx if zero).
	LoadedAt time.Time
}

// ModelSnapshot wraps a trained core model as a serving snapshot: the one
// eval forward behind both Estimate and EstimateBatch.
func ModelSnapshot(id string, m *core.Model) *Snapshot {
	return &Snapshot{
		ID:            id,
		Estimate:      m.EstimateCtx,
		EstimateBatch: m.EstimateBatchFusedCtx,
		Meta: map[string]any{
			"weights": m.NumWeights(),
			"edges":   m.Graph().NumEdges(),
		},
		Slotter:  m.Slotter(),
		RefDist:  m.RefDist(),
		LoadedAt: time.Now(),
	}
}

// LoadCheckpoint reads a checkpoint written by core.Model.Save, validates
// it against the live road network (core.Load rejects a mismatched edge
// count) and returns a snapshot whose ID is the first 12 hex digits of the
// file's SHA-256 — so /version answers exactly which bytes are serving.
func LoadCheckpoint(path string, g *roadnet.Graph) (*Snapshot, error) {
	return LoadCheckpointCtx(context.Background(), path, g)
}

// LoadCheckpointCtx is LoadCheckpoint with trace context: the load is
// recorded as an "infer.snapshot_load" span carrying the checkpoint path
// and resulting hash, so reload traces show how long the disk read and
// weight validation took.
func LoadCheckpointCtx(ctx context.Context, path string, g *roadnet.Graph) (*Snapshot, error) {
	_, span := obs.StartSpan(ctx, "infer.snapshot_load")
	defer span.End()
	span.SetStr("checkpoint", path)
	b, err := os.ReadFile(path)
	if err != nil {
		err = fmt.Errorf("infer: reading checkpoint: %w", err)
		span.Fail(err)
		return nil, err
	}
	sum := sha256.Sum256(b)
	m, err := core.Load(bytes.NewReader(b), g)
	if err != nil {
		err = fmt.Errorf("infer: loading checkpoint %s: %w", path, err)
		span.Fail(err)
		return nil, err
	}
	s := ModelSnapshot(hex.EncodeToString(sum[:])[:12], m)
	s.Meta["checkpoint"] = path
	span.SetStr("snapshot", s.ID)
	return s, nil
}
