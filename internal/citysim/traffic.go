// Package citysim synthesizes the data the paper obtained from ride-hailing
// platforms: a city's time-varying traffic, weather, grid speed matrices,
// and taxi orders (OD input + affiliated GPS trajectory + ground-truth
// travel time). See DESIGN.md §1 for the substitution argument.
//
// The congestion model is multiplicative: the effective speed of edge e at
// time t is FreeSpeed(e) · congestion(e, t), where congestion combines
//   - a smooth time-of-day profile with morning and evening rush hours,
//   - a weekday/weekend distinction (weekly periodicity, Figure 5a),
//   - a per-edge sensitivity (arterials congest more than side streets),
//   - a spatial center-of-town factor (downtown congests more),
//   - a weather slowdown, and
//   - smooth per-edge pseudo-random ripple so distinct edges decorrelate.
//
// All components are deterministic functions of (edge, time, seed), so the
// simulator is reproducible and the FIFO property required by
// time-dependent Dijkstra holds to a good approximation.
package citysim

import (
	"fmt"
	"math"
	"math/rand"

	"deepod/internal/geo"
	"deepod/internal/roadnet"
	"deepod/internal/timeslot"
)

// WeatherTypes is N_wea, the number of weather categories (paper §6.1).
const WeatherTypes = 16

// Traffic is the deterministic congestion + weather field of one city.
type Traffic struct {
	g *roadnet.Graph

	edgePhase  []float64 // per-edge ripple phase
	edgeSens   []float64 // per-edge congestion sensitivity
	spatial    []float64 // per-edge downtown factor
	freeSpeed  []float64 // per-edge FreeSpeed × idiosyncratic speed factor (m/s)
	entryWait  []float64 // per-edge base intersection wait (seconds)
	weatherSeq []int     // weather type per hour
	horizonSec float64
}

// NewTraffic builds the traffic field for g covering horizon seconds from
// the base timestamp.
func NewTraffic(g *roadnet.Graph, horizon float64, seed int64) (*Traffic, error) {
	if horizon <= 0 {
		return nil, fmt.Errorf("citysim: horizon must be positive, got %v", horizon)
	}
	rng := rand.New(rand.NewSource(seed))
	b := g.Bounds()
	center := geo.Point{X: (b.Min.X + b.Max.X) / 2, Y: (b.Min.Y + b.Max.Y) / 2}
	halfSpan := math.Max(b.Width(), b.Height()) / 2
	n := g.NumEdges()
	t := &Traffic{
		g:          g,
		edgePhase:  make([]float64, n),
		edgeSens:   make([]float64, n),
		spatial:    make([]float64, n),
		freeSpeed:  make([]float64, n),
		entryWait:  make([]float64, n),
		horizonSec: horizon,
	}
	for i := range t.edgePhase {
		t.edgePhase[i] = float64(rng.Float64()) * 2 * math.Pi
		sens := 0.5 + float64(0.3*float64(rng.Float64()))
		if g.Edges[i].Class == roadnet.Arterial {
			sens += 0.25 // arterials feel rush hour more
		}
		t.edgeSens[i] = sens
		// Downtown factor: edges near the center congest harder.
		from, to := g.EdgePoints(roadnet.EdgeID(i))
		rel := 1 - math.Min(1, geo.Dist(geo.Lerp(from, to, 0.5), center)/halfSpan)
		t.spatial[i] = 0.6 + float64(0.4*rel)
		// Idiosyncratic per-segment speed: real road networks have
		// heterogeneous effective speeds (lanes, surface, signals) that
		// Euclidean-distance features cannot see but per-segment
		// representations can. Lognormal, clamped to [0.45, 1.8].
		f := math.Exp(rng.NormFloat64() * 0.35)
		if f < 0.45 {
			f = 0.45
		} else if f > 1.8 {
			f = 1.8
		}
		t.freeSpeed[i] = float64(g.Edges[i].FreeSpeed * f)
		// Base intersection wait when turning onto this segment: crossing
		// onto an arterial takes longer (signals), and every intersection
		// has its own character.
		wait := 1 + float64(5*float64(rng.Float64()))
		if g.Edges[i].Class == roadnet.Arterial {
			wait += 3
		}
		t.entryWait[i] = wait
	}
	// Weather: a sticky Markov chain over WeatherTypes states sampled per
	// hour. Types 0..7 are "good" (no slowdown), 8..15 increasingly bad.
	hours := int(math.Ceil(horizon/3600)) + 1
	t.weatherSeq = make([]int, hours)
	cur := rng.Intn(8)
	for h := 0; h < hours; h++ {
		if rng.Float64() < 0.15 { // change weather
			if rng.Float64() < 0.7 {
				cur = rng.Intn(8) // good
			} else {
				cur = 8 + rng.Intn(8) // bad
			}
		}
		t.weatherSeq[h] = cur
	}
	return t, nil
}

// Graph returns the underlying road network.
func (t *Traffic) Graph() *roadnet.Graph { return t.g }

// Horizon returns the simulated span in seconds.
func (t *Traffic) Horizon() float64 { return t.horizonSec }

// Weather returns the weather type (0..WeatherTypes-1) at time sec.
func (t *Traffic) Weather(sec float64) int {
	h := int(sec / 3600)
	if h < 0 {
		h = 0
	}
	if h >= len(t.weatherSeq) {
		h = len(t.weatherSeq) - 1
	}
	return t.weatherSeq[h]
}

// weatherSlowdown maps a weather type to a speed multiplier ≤ 1.
func weatherSlowdown(w int) float64 {
	if w < 8 {
		return 1
	}
	return 1 - float64(0.04*float64(w-7)) // up to 32% slowdown in the worst weather
}

// dayProfile is the time-of-day congestion intensity in [0, 1]: two rush
// peaks on weekdays, one flat midday bump on weekends.
func dayProfile(secOfDay float64, weekend bool) float64 {
	h := secOfDay / 3600
	gauss := func(mu, sigma float64) float64 {
		d := (h - mu) / sigma
		return math.Exp(-0.5 * d * d)
	}
	if weekend {
		return 0.45 * gauss(14, 4)
	}
	return float64(0.9*gauss(8.5, 1.4)) + float64(0.8*gauss(18, 1.7)) + float64(0.25*gauss(13, 3))
}

// instant holds the terms of the field that depend on the time alone, so a
// caller that evaluates many edges at one time computes them once.
type instant struct {
	sec       float64
	intensity float64 // dayProfile at sec
	slowdown  float64 // weatherSlowdown at sec
	phase     float64 // ripple phase 2π·sec/2400
}

// at evaluates the time terms of the field at sec.
func (t *Traffic) at(sec float64) instant {
	day := int(sec / timeslot.SecondsPerDay)
	secOfDay := sec - float64(float64(day)*timeslot.SecondsPerDay)
	return instant{
		sec:       sec,
		intensity: dayProfile(secOfDay, day%7 >= 5),
		slowdown:  weatherSlowdown(t.Weather(sec)),
		phase:     float64(2 * math.Pi * sec / 2400),
	}
}

// Congestion returns the speed multiplier of edge e at time sec, in
// (0.15, 1].
func (t *Traffic) Congestion(e roadnet.EdgeID, sec float64) float64 {
	return t.congestion(e, t.at(sec))
}

func (t *Traffic) congestion(e roadnet.EdgeID, in instant) float64 {
	// Smooth per-edge ripple, period ~40 min, amplitude 0.1.
	ripple := float64(0.1 * math.Sin(in.phase+t.edgePhase[e]))

	drop := (float64(in.intensity*t.edgeSens[e]*t.spatial[e]) + ripple) // fraction of speed lost
	if drop < 0 {
		drop = 0
	}
	if drop > 0.85 {
		drop = 0.85
	}
	return (1 - drop) * in.slowdown
}

// Speed returns the effective speed of edge e at time sec in m/s,
// including the edge's idiosyncratic factor.
func (t *Traffic) Speed(e roadnet.EdgeID, sec float64) float64 {
	return t.speed(e, t.at(sec))
}

func (t *Traffic) speed(e roadnet.EdgeID, in instant) float64 {
	return t.freeSpeed[e] * t.congestion(e, in)
}

// EntryWait returns the intersection wait (seconds) paid when turning onto
// edge e at time sec: the edge's base wait scaled by the time-of-day
// congestion intensity. Waits grow during rush hour — a route crossing many
// signalled intersections degrades more than its length suggests, which is
// route-shape structure only network-aware models can capture.
func (t *Traffic) EntryWait(e roadnet.EdgeID, sec float64) float64 {
	return t.entryWaitAt(e, t.at(sec))
}

// entryWaitAt lengthens waits in bad weather by 1/slowdown.
func (t *Traffic) entryWaitAt(e roadnet.EdgeID, in instant) float64 {
	return float64(t.entryWait[e] * (0.4 + float64(1.6*in.intensity)) * (1 / in.slowdown))
}

// TravelCost returns an EdgeCostFunc backed by this traffic field: the
// intersection entry wait plus the traversal time at entry-time speed. The
// closure keeps the time terms of its last call, which time-dependent
// Dijkstra reuses across a vertex's out-edges; it is for one goroutine.
func (t *Traffic) TravelCost() roadnet.EdgeCostFunc {
	last := instant{sec: math.NaN()}
	return func(e roadnet.EdgeID, enterSec float64) float64 {
		if enterSec != last.sec {
			last = t.at(enterSec)
		}
		return t.entryWaitAt(e, last) + t.g.Edges[e].Length/t.speed(e, last)
	}
}

// TraverseTime integrates the traversal time of a fraction span
// [fromFrac, toFrac] of edge e entered at enterSec, stepping the congestion
// field every stepSec seconds for accuracy on long segments.
func (t *Traffic) TraverseTime(e roadnet.EdgeID, fromFrac, toFrac, enterSec float64) float64 {
	if toFrac < fromFrac {
		panic(fmt.Sprintf("citysim: TraverseTime spans backwards (%v > %v)", fromFrac, toFrac))
	}
	length := t.g.Edges[e].Length * (toFrac - fromFrac)
	remaining := length
	now := enterSec
	const stepSec = 30.0
	for remaining > 1e-9 {
		v := t.Speed(e, now)
		d := float64(v * stepSec)
		if d >= remaining {
			return now + remaining/v - enterSec
		}
		remaining -= d
		now += stepSec
	}
	return now - enterSec
}
