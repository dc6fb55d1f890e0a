package experiments

import (
	"fmt"
	"time"

	"deepod/internal/core"
	"deepod/internal/models"
	"deepod/internal/traj"
)

// Method names used across all experiments, in the paper's report order.
var (
	// AllTable4Methods is the row order of Table 4.
	AllTable4Methods = []string{"TEMP", "LR", "GBM", "STNN", "MURAT", "N-st", "N-sp", "N-tp", "N-other", "DeepOD"}
	// EmbeddingVariants are the Table 7 variants.
	EmbeddingVariants = []string{"T-one", "T-day", "T-stamp", "R-one"}
)

// DeepODEstimator adapts core.Model to the models.Trainable interface so
// the harness treats DeepOD and the baselines uniformly.
type DeepODEstimator struct {
	// Label is the reported name ("DeepOD" or an ablation/variant name).
	Label string
	// Cfg is the configuration the model is built from on Train.
	Cfg core.Config
	// EvalEvery/ValSample forward to core.TrainOptions.
	EvalEvery, ValSample int

	model     *core.Model
	stats     *core.TrainStats
	trainTime time.Duration
}

// Name implements models.Estimator.
func (d *DeepODEstimator) Name() string { return d.Label }

// Model returns the trained core model (nil before Train).
func (d *DeepODEstimator) Model() *core.Model { return d.model }

// Train implements models.Trainable. The model needs the road network; the
// Suite sets it via the graph captured in Cfg construction — so Train here
// requires that d.model was pre-built by NewDeepODEstimator.
func (d *DeepODEstimator) Train(train, valid []traj.TripRecord) error {
	if d.model == nil {
		return fmt.Errorf("experiments: DeepODEstimator %q not built", d.Label)
	}
	start := time.Now()
	stats, err := d.model.Train(train, valid, core.TrainOptions{
		EvalEvery: d.EvalEvery,
		ValSample: d.ValSample,
	})
	if err != nil {
		return err
	}
	d.stats = stats
	d.trainTime = time.Since(start)
	return nil
}

// Estimate implements models.Estimator.
func (d *DeepODEstimator) Estimate(od *traj.MatchedOD) float64 {
	return d.model.Estimate(od)
}

// SizeBytes implements models.Trainable.
func (d *DeepODEstimator) SizeBytes() int { return d.model.Params().SizeBytes() }

// TrainTime implements models.Trainable.
func (d *DeepODEstimator) TrainTime() time.Duration { return d.trainTime }

// Stats returns the training curve (nil before Train).
func (d *DeepODEstimator) Stats() *core.TrainStats { return d.stats }

// NewDeepODEstimator builds a DeepOD adapter over a world with the scale's
// base config, applying mod (which may be nil) for ablations and variants.
func NewDeepODEstimator(label string, w *World, sc Scale, mod func(*core.Config)) (*DeepODEstimator, error) {
	cfg := sc.Cfg
	if mod != nil {
		mod(&cfg)
	}
	m, err := core.New(cfg, w.Graph)
	if err != nil {
		return nil, err
	}
	return &DeepODEstimator{Label: label, Cfg: cfg, model: m, EvalEvery: sc.EvalEvery}, nil
}

// variantMod returns the config modifier for a named method ("DeepOD",
// ablations, embedding variants), or an error for unknown names.
func variantMod(name string) (func(*core.Config), error) {
	switch name {
	case "DeepOD":
		return nil, nil
	case "N-st":
		return func(c *core.Config) { c.NoTrajectory = true }, nil
	case "N-sp":
		return func(c *core.Config) { c.NoSpatial = true }, nil
	case "N-tp":
		return func(c *core.Config) { c.NoTemporal = true }, nil
	case "N-other":
		return func(c *core.Config) { c.NoExternal = true }, nil
	case "T-one":
		return func(c *core.Config) { c.TimeInit = core.TimeOneHot }, nil
	case "T-day":
		return func(c *core.Config) { c.TimeInit = core.TimeDayGraph }, nil
	case "T-stamp":
		return func(c *core.Config) { c.TimeInit = core.TimeStamp }, nil
	case "R-one":
		return func(c *core.Config) { c.RoadInit = core.RoadOneHot }, nil
	}
	return nil, fmt.Errorf("experiments: unknown DeepOD variant %q", name)
}

// Suite caches built worlds and trained models so experiments that share a
// (city, method) pair — Tables 4 and 5, Figures 11–13 — train only once.
type Suite struct {
	Scale  Scale
	worlds map[string]*World
	models map[string]models.Trainable // key: city + "/" + method
}

// NewSuite creates an empty suite at the given scale.
func NewSuite(sc Scale) *Suite {
	return &Suite{
		Scale:  sc,
		worlds: make(map[string]*World),
		models: make(map[string]models.Trainable),
	}
}

// World returns (building and caching) the world for a city. It is the only
// source of worlds, so every experiment on a city shares one; nothing that
// trains or evaluates a model writes to it.
func (s *Suite) World(city string) (*World, error) {
	if w, ok := s.worlds[city]; ok {
		return w, nil
	}
	w, err := buildWorld(city, s.Scale)
	if err != nil {
		return nil, err
	}
	s.worlds[city] = w
	return w, nil
}

// newUntrained constructs an untrained model for a method name.
func (s *Suite) newUntrained(method string, w *World) (models.Trainable, error) {
	switch method {
	case "TEMP":
		return models.NewTEMP(w.Graph), nil
	case "LR":
		return models.NewLinReg(w.Graph), nil
	case "GBM":
		return models.NewGBM(w.Graph), nil
	case "STNN":
		m := models.NewSTNN(w.Graph)
		m.Hidden = s.Scale.Cfg.Dh
		m.LREvery = s.Scale.Cfg.LREvery
		m.Epochs = s.Scale.Cfg.Epochs
		m.BatchSize = s.Scale.Cfg.BatchSize
		m.EvalEvery = s.Scale.EvalEvery
		return m, nil
	case "MURAT":
		m := models.NewMURAT(w.Graph)
		m.Ds, m.Dt = s.Scale.Cfg.Ds, s.Scale.Cfg.Dt
		m.Hidden = s.Scale.Cfg.Dh
		m.LREvery = s.Scale.Cfg.LREvery
		m.Epochs = s.Scale.Cfg.Epochs
		m.BatchSize = s.Scale.Cfg.BatchSize
		m.EvalEvery = s.Scale.EvalEvery
		m.EmbedWalks = s.Scale.Cfg.EmbedWalks
		return m, nil
	}
	mod, err := variantMod(method)
	if err != nil {
		return nil, err
	}
	return NewDeepODEstimator(method, w, s.Scale, mod)
}

// Model returns (training and caching) the model for (city, method) fitted
// on the city's full training split.
func (s *Suite) Model(city, method string) (models.Trainable, error) {
	key := city + "/" + method
	if m, ok := s.models[key]; ok {
		return m, nil
	}
	w, err := s.World(city)
	if err != nil {
		return nil, err
	}
	m, err := s.newUntrained(method, w)
	if err != nil {
		return nil, err
	}
	if err := m.Train(w.Split.Train, w.Split.Valid); err != nil {
		return nil, fmt.Errorf("experiments: training %s on %s: %w", method, city, err)
	}
	s.models[key] = m
	return m, nil
}

// predict evaluates method, trained on city (or reused from the cache), on
// the city's test split.
func (s *Suite) predict(city, method string) (actual, pred []float64, err error) {
	w, err := s.World(city)
	if err != nil {
		return nil, nil, err
	}
	m, err := s.Model(city, method)
	if err != nil {
		return nil, nil, err
	}
	actual, pred = evaluate(m, w.Split.Test)
	return actual, pred, nil
}

// row starts a row of experiment exp at the suite's seed.
func (s *Suite) row(exp, city, method, split string) Row {
	return Row{Exp: exp, City: city, Method: method, Seed: s.Scale.Seed, Split: split}
}

// trainDeepOD fits a fresh DeepOD built from cfg on w's training split: one
// cell of the sweeps that vary the configuration (Figures 8, 9 and 14a and
// the embedding study).
func trainDeepOD(cfg core.Config, w *World) (*core.Model, error) {
	m, err := core.New(cfg, w.Graph)
	if err != nil {
		return nil, err
	}
	if _, err := m.Train(w.Split.Train, w.Split.Valid, core.TrainOptions{}); err != nil {
		return nil, err
	}
	return m, nil
}
