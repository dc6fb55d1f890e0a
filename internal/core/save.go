package core

import (
	"encoding/gob"
	"fmt"
	"io"
	"math"

	"deepod/internal/metrics"
	"deepod/internal/nn"
	"deepod/internal/roadnet"
)

// savedModel is the on-disk format: the configuration, the target scale and
// every parameter tensor by name (encoding/gob). Older checkpoints also
// carry a Calib field (a calibration OD set); gob skips a stream field the
// receiver lacks, so they load unchanged.
type savedModel struct {
	Config    Config
	TimeScale float64
	NumEdges  int
	Params    nn.Snapshot
	// RefDist is the test-split absolute-error distribution recorded at
	// training time (drift reference for internal/quality). gob tolerates
	// its absence, so checkpoints written before this field load fine and
	// leave it nil.
	RefDist *metrics.RefDist
}

// Save serializes the trained model to w. The road network itself is not
// stored — Load requires a structurally identical graph (same edge count),
// which in this repository is reproducible from the city preset and seed.
func (m *Model) Save(w io.Writer) error {
	s := savedModel{
		Config:    m.cfg,
		TimeScale: m.timeScale,
		NumEdges:  m.g.NumEdges(),
		Params:    m.ps.Save(),
		RefDist:   m.refDist,
	}
	if err := gob.NewEncoder(w).Encode(&s); err != nil {
		return fmt.Errorf("core: encoding model: %w", err)
	}
	return nil
}

// Load deserializes a model saved with Save, rebuilding it over g. A
// checkpoint with a non-finite weight or a time scale that is not a positive
// finite number is rejected with an error naming it.
func Load(r io.Reader, g *roadnet.Graph) (*Model, error) {
	var s savedModel
	if err := gob.NewDecoder(r).Decode(&s); err != nil {
		return nil, fmt.Errorf("core: decoding model: %w", err)
	}
	if s.NumEdges != g.NumEdges() {
		return nil, fmt.Errorf("core: model was trained on a network with %d edges, graph has %d",
			s.NumEdges, g.NumEdges())
	}
	if !(s.TimeScale > 0) || math.IsInf(s.TimeScale, 1) {
		return nil, fmt.Errorf("core: checkpoint time scale %v is not a positive finite number", s.TimeScale)
	}
	m, err := New(s.Config, g)
	if err != nil {
		return nil, err
	}
	if err := m.ps.Load(s.Params); err != nil {
		return nil, err
	}
	m.SetTimeScale(s.TimeScale)
	m.SetRefDist(s.RefDist)
	return m, nil
}
