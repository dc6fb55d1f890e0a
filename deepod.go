// Package deepod is a from-scratch Go implementation of DeepOD, the
// origin–destination travel-time estimation model of "Effective Travel Time
// Estimation: When Historical Trajectories over Road Networks Matter"
// (Yuan, Li, Bao, Feng; SIGMOD 2020), together with every substrate the
// paper depends on: road networks, map matching, a traffic and taxi-order
// simulator (the stand-in for the proprietary ride-hailing datasets),
// node2vec-style graph embeddings, and the five baselines the paper
// compares against.
//
// The quickest path from zero to an estimate:
//
//	city, _ := deepod.BuildCity("chengdu-s", deepod.CityOptions{Orders: 4000})
//	est, _ := deepod.Train(deepod.SmallConfig(), city, nil)
//	eta := est.Estimate(&city.Split.Test[0].Matched) // seconds
//
// Everything the examples and CLIs use flows through this package; the
// internal packages carry the implementation.
package deepod

import (
	"context"
	"fmt"
	"math"
	"time"

	"deepod/internal/citysim"
	"deepod/internal/core"
	"deepod/internal/dataset"
	"deepod/internal/experiments"
	"deepod/internal/geo"
	"deepod/internal/mapmatch"
	"deepod/internal/metrics"
	"deepod/internal/models"
	"deepod/internal/roadnet"
	"deepod/internal/traj"
)

// Re-exported domain types. The aliases make the public API self-contained
// while keeping one definition of each type.
type (
	// Config holds DeepOD's hyper-parameters (paper notation).
	Config = core.Config
	// TrainOptions tunes the training loop.
	TrainOptions = core.TrainOptions
	// TrainStats reports training outcomes (validation curve, convergence).
	TrainStats = core.TrainStats
	// Model is the trained DeepOD network.
	Model = core.Model

	// TripRecord is one taxi order (OD input + trajectory + travel time).
	TripRecord = traj.TripRecord
	// ODInput is an origin, destination and departure time (Definition 2).
	ODInput = traj.ODInput
	// MatchedOD is an OD input matched onto road segments.
	MatchedOD = traj.MatchedOD
	// Trajectory is a spatio-temporal path plus position ratios (Def. 1).
	Trajectory = traj.Trajectory

	// Graph is a directed, weighted road network (paper §2).
	Graph = roadnet.Graph
	// Split is a chronological train/valid/test partition.
	Split = dataset.Split

	// Estimator is any trained travel-time predictor (DeepOD or baseline).
	Estimator = models.Estimator
	// Trainable is an Estimator that can be fitted to trip records.
	Trainable = models.Trainable

	// Point is a planar position in meters.
	Point = geo.Point
)

// Configuration constructors (see core.PaperConfig / core.SmallConfig).
var (
	// PaperConfig returns the paper's §6.2 hyper-parameters.
	PaperConfig = core.PaperConfig
	// SmallConfig returns laptop-scale hyper-parameters.
	SmallConfig = core.SmallConfig
)

// Metrics of the paper's §6.1 (fractions, not percentages).
var (
	MAE  = metrics.MAE
	MAPE = metrics.MAPE
	MARE = metrics.MARE
)

// City bundles a synthetic city: the road network, the traffic field, the
// generated taxi orders and their chronological 42:7:12 split.
type City struct {
	Name    string
	Graph   *Graph
	Traffic *citysim.Traffic
	Grid    *citysim.SpeedGridder
	Records []TripRecord
	Split   Split
}

// CityOptions tunes BuildCity.
type CityOptions struct {
	// Orders is the number of taxi orders to synthesize (default 2000).
	Orders int
	// HorizonDays is the simulated time span (default 28).
	HorizonDays int
	// GridCellMeters / GridPeriod configure the traffic-condition grids
	// (defaults 250 m / 5 min, the paper's settings).
	GridCellMeters float64
	GridPeriod     time.Duration
	// Seed makes the city reproducible (default 1).
	Seed int64
}

// BuildCity generates one of the named synthetic cities ("chengdu-s",
// "xian-s", "beijing-s") with taxi orders and splits. These presets mirror
// the relative sizes of the paper's three road networks.
func BuildCity(name string, opts CityOptions) (*City, error) {
	if opts.Orders <= 0 {
		opts.Orders = 2000
	}
	if opts.HorizonDays <= 0 {
		opts.HorizonDays = 28
	}
	if opts.GridCellMeters <= 0 {
		opts.GridCellMeters = 250
	}
	if opts.GridPeriod <= 0 {
		opts.GridPeriod = 5 * time.Minute
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	ccfg, err := roadnet.CityPreset(name)
	if err != nil {
		return nil, err
	}
	ccfg.Seed += opts.Seed
	g, err := roadnet.GenerateCity(ccfg)
	if err != nil {
		return nil, err
	}
	tf, err := citysim.NewTraffic(g, float64(opts.HorizonDays)*86400, opts.Seed+7)
	if err != nil {
		return nil, err
	}
	grid, err := citysim.NewSpeedGridder(tf, opts.GridCellMeters, opts.GridPeriod.Seconds())
	if err != nil {
		return nil, err
	}
	gen, err := citysim.NewGenerator(tf, grid, citysim.DefaultOrderConfig(opts.Orders, opts.Seed+13))
	if err != nil {
		return nil, err
	}
	records, err := gen.Generate()
	if err != nil {
		return nil, err
	}
	split, err := dataset.PaperSplit(records)
	if err != nil {
		return nil, err
	}
	return &City{Name: name, Graph: g, Traffic: tf, Grid: grid, Records: records, Split: split}, nil
}

// Train builds a DeepOD model over the city's road network and fits it on
// the city's training/validation splits. opts may be nil for defaults.
func Train(cfg Config, city *City, opts *TrainOptions) (*Model, error) {
	m, err := core.New(cfg, city.Graph)
	if err != nil {
		return nil, err
	}
	var o TrainOptions
	if opts != nil {
		o = *opts
	}
	if _, err := m.Train(city.Split.Train, city.Split.Valid, o); err != nil {
		return nil, err
	}
	return m, nil
}

// TrainWithStats is Train but also returns the training statistics.
func TrainWithStats(cfg Config, city *City, opts *TrainOptions) (*Model, *TrainStats, error) {
	m, err := core.New(cfg, city.Graph)
	if err != nil {
		return nil, nil, err
	}
	var o TrainOptions
	if opts != nil {
		o = *opts
	}
	stats, err := m.Train(city.Split.Train, city.Split.Valid, o)
	if err != nil {
		return nil, nil, err
	}
	return m, stats, nil
}

// Baseline constructs an untrained baseline by name: "TEMP", "LR", "GBM",
// "STNN", "MURAT" or "RouteETA" (the route-based extension estimator).
func Baseline(name string, g *Graph) (Trainable, error) {
	switch name {
	case "TEMP":
		return models.NewTEMP(g), nil
	case "LR":
		return models.NewLinReg(g), nil
	case "GBM":
		return models.NewGBM(g), nil
	case "STNN":
		return models.NewSTNN(g), nil
	case "MURAT":
		return models.NewMURAT(g), nil
	case "RouteETA":
		return models.NewRouteETA(g), nil
	}
	return nil, fmt.Errorf("deepod: unknown baseline %q (want TEMP, LR, GBM, STNN, MURAT or RouteETA)", name)
}

// NewMatcher builds a map matcher over a road network, for snapping OD
// endpoints (MatchOD) and decoding live probe streams to segments.
func NewMatcher(g *Graph) (*mapmatch.Matcher, error) {
	return mapmatch.New(g, mapmatch.DefaultConfig())
}

// MatchOD snaps an OD input's endpoints to road segments, producing the
// MatchedOD representation the models consume.
func MatchOD(m *mapmatch.Matcher, od ODInput) (MatchedOD, error) {
	return MatchODCtx(context.Background(), m, od)
}

// MatchODCtx is MatchOD with trace context: inside a traced request the
// two mapmatch.point spans join the request's span tree.
func MatchODCtx(ctx context.Context, m *mapmatch.Matcher, od ODInput) (MatchedOD, error) {
	oe, of, err := m.MatchPointCtx(ctx, od.Origin)
	if err != nil {
		return MatchedOD{}, fmt.Errorf("deepod: matching origin: %w", err)
	}
	de, df, err := m.MatchPointCtx(ctx, od.Dest)
	if err != nil {
		return MatchedOD{}, fmt.Errorf("deepod: matching destination: %w", err)
	}
	return MatchedOD{
		OriginEdge: oe, DestEdge: de,
		RStart: of, REnd: 1 - df,
		DepartSec: od.DepartSec,
		External:  od.External,
	}, nil
}

// Evaluate computes MAE (seconds), MAPE and MARE (fractions) of an
// estimator over test records.
func Evaluate(est Estimator, test []TripRecord) (mae, mape, mare float64) {
	actual := make([]float64, len(test))
	pred := make([]float64, len(test))
	for i := range test {
		actual[i] = test[i].TravelSec
		pred[i] = est.Estimate(&test[i].Matched)
	}
	return metrics.MAE(actual, pred), metrics.MAPE(actual, pred), metrics.MARE(actual, pred)
}

// ErrorRefDist bins the per-sample absolute errors of est over test into a
// reference distribution — the drift baseline internal/quality compares
// live serving errors against. ttetrain records it into the checkpoint so
// tteserve can arm drift detection on load.
func ErrorRefDist(est Estimator, test []TripRecord) *metrics.RefDist {
	d := metrics.NewRefDist(nil)
	for i := range test {
		d.Observe(math.Abs(test[i].TravelSec - est.Estimate(&test[i].Matched)))
	}
	return d
}

// Experiment scales for the benchmark harness (see internal/experiments).
var (
	// TinyScale checks plumbing in seconds.
	TinyScale = experiments.TinyScale
	// ShapeScale reproduces the headline comparison on one city.
	ShapeScale = experiments.ShapeScale
	// SmallScale is the full three-city harness scale.
	SmallScale = experiments.SmallScale
)
