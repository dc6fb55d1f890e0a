// Package models implements the five baselines the paper compares DeepOD
// against (§6.1):
//
//   - TEMP  — temporally weighted nearest neighbors (Wang et al., 2016)
//   - LR    — linear regression
//   - GBM   — gradient-boosted regression trees (the XGBoost baseline)
//   - STNN  — the deep model of Jindal et al. (distance-then-time)
//   - MURAT — the multi-task representation-learning model of Li et al.
//
// All models implement Estimator so the experiment harness can treat them
// and DeepOD uniformly.
package models

import (
	"math"
	"time"

	"deepod/internal/geo"
	"deepod/internal/roadnet"
	"deepod/internal/traj"
)

// Estimator is a trained OD travel-time predictor.
type Estimator interface {
	// Name identifies the method in reports ("TEMP", "LR", ...).
	Name() string
	// Estimate predicts the travel time in seconds for a matched OD input.
	Estimate(od *traj.MatchedOD) float64
}

// Trainable is an Estimator that learns from historical trip records.
type Trainable interface {
	Estimator
	// Train fits the model. The deep models (STNN, MURAT, DeepOD) measure
	// their validation curve on valid and reject an empty one; the others
	// ignore it.
	Train(train, valid []traj.TripRecord) error
	// SizeBytes reports the memory footprint of the trained model
	// (Table 5's "model size").
	SizeBytes() int
	// TrainTime reports how long the last Train call took.
	TrainTime() time.Duration
}

// Featurizer extracts the hand-crafted OD feature vector used by LR, GBM
// and (in part) the deep baselines. Features are unit-scale:
//
//	0: origin x (normalized)   1: origin y
//	2: dest x                  3: dest y
//	4: Euclidean distance (km) 5: Manhattan distance (km)
//	6: sin(hour angle)         7: cos(hour angle)
//	8: day of week / 7         9: weekend flag
//	10: departure position ratio r[1]
//	11: destination position ratio r[-1]
//	12: mean grid speed (m/s / 16), 0 when unavailable
type Featurizer struct {
	g      *roadnet.Graph
	bounds geo.Rect
}

// NumFeatures is the length of the vector Features returns.
const NumFeatures = 13

// NewFeaturizer builds a featurizer over a road network.
func NewFeaturizer(g *roadnet.Graph) *Featurizer {
	return &Featurizer{g: g, bounds: g.Bounds()}
}

// Features extracts the feature vector for a matched OD input.
func (f *Featurizer) Features(od *traj.MatchedOD) []float64 {
	o := f.g.PointAlongEdge(od.OriginEdge, od.RStart)
	d := f.g.PointAlongEdge(od.DestEdge, 1-od.REnd)
	w, h := f.bounds.Width(), f.bounds.Height()
	nx := func(p geo.Point) (float64, float64) {
		return (p.X - f.bounds.Min.X) / w, (p.Y - f.bounds.Min.Y) / h
	}
	ox, oy := nx(o)
	dx, dy := nx(d)

	secOfDay := math.Mod(od.DepartSec, 86400)
	hourAngle := 2 * math.Pi * secOfDay / 86400
	day := int(od.DepartSec/86400) % 7
	weekend := 0.0
	if day >= 5 {
		weekend = 1
	}
	var gridSpeed float64
	if od.External != nil && len(od.External.SpeedGrid) > 0 {
		var s float64
		var n int
		for _, v := range od.External.SpeedGrid {
			if v > 0 {
				s += v
				n++
			}
		}
		if n > 0 {
			gridSpeed = s / float64(n) / 16.0
		}
	}
	return []float64{
		ox, oy, dx, dy,
		geo.Dist(o, d) / 1000,
		(math.Abs(o.X-d.X) + math.Abs(o.Y-d.Y)) / 1000,
		math.Sin(hourAngle), math.Cos(hourAngle),
		float64(day) / 7, weekend,
		od.RStart, od.REnd,
		gridSpeed,
	}
}

// ODPoints returns the origin and destination positions of a matched OD.
func (f *Featurizer) ODPoints(od *traj.MatchedOD) (origin, dest geo.Point) {
	return f.g.PointAlongEdge(od.OriginEdge, od.RStart),
		f.g.PointAlongEdge(od.DestEdge, 1-od.REnd)
}

// NumBasicFeatures is the length of BasicFeatures' result.
const NumBasicFeatures = 8

// BasicFeatures extracts the "basic" feature vector (raw coordinates and
// time features, no engineered distances) used by the LR baseline — the
// paper describes LR as a basic learning method, and it is the engineered
// distance features that would otherwise make a linear model unrealistically
// strong on grid cities:
//
//	0-3: origin x/y, dest x/y (normalized)
//	4-5: sin/cos hour angle
//	6: day of week / 7   7: weekend flag
func (f *Featurizer) BasicFeatures(od *traj.MatchedOD) []float64 {
	fs := f.Features(od)
	return []float64{fs[0], fs[1], fs[2], fs[3], fs[6], fs[7], fs[8], fs[9]}
}
