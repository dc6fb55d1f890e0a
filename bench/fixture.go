package main

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"

	"deepod"
	"deepod/internal/citysim"
	"deepod/internal/geo"
	"deepod/internal/infer"
	"deepod/internal/traffic"
	"deepod/internal/traj"
)

// Fixture sizes. Every body is a pure function of (workload, seed, sizes);
// the program under test only ever sees the rendered bytes.
const (
	coldBodies     = 20000 // distinct keys, far more than the 8192-entry cache
	hotBodies      = 64    // popular ODs, one cache key each
	checkedAnswers = 256   // HTTP answers compared bit for bit with the model
	// liveWarmCoverage is the edge coverage the live set-up posts probes up
	// to before any window opens: above FeatureSource's 0.02 floor, so the
	// first measured estimate already sees live speeds.
	liveWarmCoverage = 0.05
	warmRequests     = 2000 // sent during set-up, before any window

	liveVehicles     = 1000
	liveProbePeriod  = 5.0
	probesPerBody    = 32
	estimatesPerBody = 16
	// liveBaseSec is where the probe fleet starts: day 7, 08:00 of the
	// 28-day horizon, a weekday rush hour.
	liveBaseSec = 7*86400.0 + 8*3600.0
	// liveHeadroom is how much faster than the set-up's sequential warm-up
	// client a live loop is allowed to run before the probe pool runs out.
	liveHeadroom = 1.5
	// liveChunkSec is the simulated time the probe fleet is advanced by at a
	// time. It is fixed so that a longer pool is a shorter one continued: how
	// many probes a run needs depends on the machine, what they are does not.
	liveChunkSec = 60.0
	replayProbes = 20000 // pool probes replayed through a fresh Tracker
)

// estimateBody is one POST /estimate body with the OD it encodes.
type estimateBody struct {
	body []byte
	od   traj.ODInput
}

// liveCycle is one turn of the estimate-live mix: a probe body, then
// estimatesPerBody estimates departing at that body's newest probe time.
type liveCycle struct {
	probes []byte
	depart []byte                     // the newest probe's time, as rendered into the bodies
	pairs  [estimatesPerBody][2]int32 // (origin record, destination record)
}

// fixture is everything a workload sends, rendered before any window.
type fixture struct {
	// estimates are the cold/hot bodies (on live, the cold-style bodies that
	// warm the stack up before any probe arrives); warm are the bodies the
	// set-up sends, drawn from estimates.
	estimates []estimateBody
	warm      [][]byte
	// checked indexes estimates whose HTTP answers are compared with the
	// model computed directly.
	checked []int

	// Live: per client loop, its cycles; the rendered origin/destination
	// halves the loops splice estimate bodies from; and the head of the
	// probe pool for the Tracker replay.
	loops   [][]liveCycle
	origins [][]byte
	dests   [][]byte
	replay  []traffic.Probe
}

func appendPoint(dst []byte, p geo.Point) []byte {
	dst = append(dst, `{"X":`...)
	dst = strconv.AppendFloat(dst, p.X, 'g', -1, 64)
	dst = append(dst, `,"Y":`...)
	dst = strconv.AppendFloat(dst, p.Y, 'g', -1, 64)
	return append(dst, '}')
}

// renderHalves renders, per record, the opening of a body up to its origin
// and the middle from its destination to the depart_sec key, so any
// (origin, destination, departure) body is three appends.
func renderHalves(recs []deepod.TripRecord) (origins, dests [][]byte) {
	origins = make([][]byte, len(recs))
	dests = make([][]byte, len(recs))
	for i := range recs {
		o := append([]byte(`{"origin":`), appendPoint(nil, recs[i].OD.Origin)...)
		origins[i] = append(o, `,"dest":`...)
		dests[i] = append(appendPoint(nil, recs[i].OD.Dest), `,"depart_sec":`...)
	}
	return origins, dests
}

// appendEstimateBody splices one POST /estimate body.
func appendEstimateBody(dst, origin, dest, depart []byte) []byte {
	dst = append(dst, origin...)
	dst = append(dst, dest...)
	dst = append(dst, depart...)
	return append(dst, '}')
}

func roundTo(v, scale float64) float64 { return math.Round(v*scale) / scale }

func renderDepart(sec float64) []byte {
	return strconv.AppendFloat(nil, sec, 'g', -1, 64)
}

// coldFixture draws n bodies: a random record's OD at a departure uniform
// over the horizon. 2000 records × 2688 quarter-hour slots leave the cache
// nothing to reuse.
func coldFixture(c *deepod.City, rng *rand.Rand, origins, dests [][]byte, n int) []estimateBody {
	out := make([]estimateBody, n)
	horizon := c.Traffic.Horizon()
	for i := range out {
		r := rng.Intn(len(c.Records))
		od := c.Records[r].OD
		od.DepartSec = rng.Float64() * horizon
		od.External = nil
		out[i] = estimateBody{
			body: appendEstimateBody(nil, origins[r], dests[r], renderDepart(od.DepartSec)),
			od:   od,
		}
	}
	return out
}

// hotFixture picks n record ODs with pairwise distinct cache keys (origin
// cell, destination cell, slot), each at one fixed departure, so every
// repeat is a hit on the entry that very body created.
func hotFixture(c *deepod.City, rng *rand.Rand, origins, dests [][]byte, cells infer.Quantizer, n int) ([]estimateBody, error) {
	type key struct{ o, d int }
	seen := map[key]bool{}
	var out []estimateBody
	horizon := c.Traffic.Horizon()
	for _, r := range rng.Perm(len(c.Records)) {
		od := c.Records[r].OD
		k := key{cells.CellIndex(od.Origin), cells.CellIndex(od.Dest)}
		if seen[k] {
			continue
		}
		seen[k] = true
		od.DepartSec = rng.Float64() * horizon
		od.External = nil
		out = append(out, estimateBody{
			body: appendEstimateBody(nil, origins[r], dests[r], renderDepart(od.DepartSec)),
			od:   od,
		})
		if len(out) == n {
			return out, nil
		}
	}
	return nil, fmt.Errorf("fixture: only %d of %d ODs have distinct cache cells", len(out), n)
}

// liveCycles is how many cycles of the mix each loop's pool must hold for a
// run that measures for seconds, given the estimates per second the
// set-up's one sequential warm-up client reached. The run lasts its windows,
// their warm-ups (a tenth each, at least 0.2 s, of at most three windows)
// and the few cycles each set-up posts to warm the traffic store.
func liveCycles(estPerSec, seconds float64) int {
	return int(liveHeadroom*estPerSec/estimatesPerBody*(1.1*seconds+0.6)) + 256
}

// renderLive simulates the probe fleet and cuts it into cyclesPerLoop cycles
// for each of loops client loops. Vehicles are partitioned between the loops
// (vehicle index mod loops) so each vehicle's probes reach the server in
// time order whatever the loops' relative progress. Estimates pair a random
// origin with a random destination: 2000² pairs over 250 m cells keep them
// cold. Every loop draws its pairs from its own generator, and the fleet
// advances in fixed steps, so a loop's first n cycles are the same bytes
// however many follow them.
func (fx *fixture) renderLive(c *deepod.City, seed int64, loops, cyclesPerLoop int) error {
	ps, err := citysim.NewProbeStream(c.Traffic, citysim.ProbeConfig{
		Vehicles: liveVehicles, PeriodSec: liveProbePeriod, Seed: seed,
	})
	if err != nil {
		return err
	}
	fx.loops = make([][]liveCycle, loops)
	rngs := make([]*rand.Rand, loops)
	for l := range rngs {
		rngs[l] = rand.New(rand.NewSource(seed*1000 + int64(l)))
	}
	bufs := make([][]byte, loops)
	counts := make([]int, loops)
	full := 0
	for from := liveBaseSec; full < loops; from += liveChunkSec {
		if from >= c.Traffic.Horizon() {
			return fmt.Errorf("fixture: %d cycles per loop need more probes than the %g s horizon holds", cyclesPerLoop, c.Traffic.Horizon())
		}
		for _, p := range ps.Window(from, from+liveChunkSec) {
			idx, err := strconv.Atoi(strings.TrimPrefix(p.Vehicle, "veh-"))
			if err != nil {
				return fmt.Errorf("fixture: vehicle id %q: %w", p.Vehicle, err)
			}
			l := idx % loops
			if len(fx.loops[l]) == cyclesPerLoop {
				continue
			}
			// GPS feeds carry centimetres and milliseconds, not 17 digits.
			x, y, t := roundTo(p.Pos.X, 100), roundTo(p.Pos.Y, 100), roundTo(p.T, 1000)
			if len(fx.replay) < replayProbes {
				fx.replay = append(fx.replay, traffic.Probe{Vehicle: p.Vehicle, X: x, Y: y, T: t})
			}
			b := bufs[l]
			b = append(b, `{"vehicle":"`...)
			b = append(b, p.Vehicle...)
			b = append(b, `","x":`...)
			b = strconv.AppendFloat(b, x, 'f', -1, 64)
			b = append(b, `,"y":`...)
			b = strconv.AppendFloat(b, y, 'f', -1, 64)
			b = append(b, `,"t":`...)
			b = strconv.AppendFloat(b, t, 'f', -1, 64)
			b = append(b, "}\n"...)
			bufs[l] = b
			counts[l]++
			if counts[l] < probesPerBody {
				continue
			}
			// A window is sorted by time, so the last probe is the newest.
			cy := liveCycle{probes: b, depart: renderDepart(t)}
			for k := range cy.pairs {
				cy.pairs[k] = [2]int32{int32(rngs[l].Intn(len(c.Records))), int32(rngs[l].Intn(len(c.Records)))}
			}
			fx.loops[l] = append(fx.loops[l], cy)
			bufs[l], counts[l] = nil, 0
			if len(fx.loops[l]) == cyclesPerLoop {
				full++
			}
		}
	}
	return nil
}

// buildFixture renders a workload's estimate bodies from the seed. The
// live probe pool is rendered by renderLive, once the first set-up has
// shown how fast this machine goes through it.
func buildFixture(workload string, c *deepod.City, cells infer.Quantizer, seed int64) (*fixture, error) {
	fx := &fixture{}
	rng := rand.New(rand.NewSource(seed))
	fx.origins, fx.dests = renderHalves(c.Records)
	var err error
	switch workload {
	case "estimate-cold":
		fx.estimates = coldFixture(c, rng, fx.origins, fx.dests, coldBodies)
	case "estimate-hot":
		fx.estimates, err = hotFixture(c, rng, fx.origins, fx.dests, cells, hotBodies)
	case "estimate-live":
		// The estimates that warm the stack up before any probe arrives.
		fx.estimates = coldFixture(c, rng, fx.origins, fx.dests, warmRequests)
	default:
		err = fmt.Errorf("fixture: no estimate fixture for workload %q", workload)
	}
	if err != nil {
		return nil, err
	}
	for i := 0; i < warmRequests; i++ {
		fx.warm = append(fx.warm, fx.estimates[i%len(fx.estimates)].body)
	}
	// Checked answers: the first bodies the loops send after warm-up (all of
	// them when the workload has fewer than that), so even a run too slow to
	// finish a lap has seen every one. Which ODs those are is the seed's draw.
	// (Unused on live, whose answers are range-checked, not compared.)
	for i := 0; i < checkedAnswers && i < len(fx.estimates); i++ {
		fx.checked = append(fx.checked, (warmRequests+i)%len(fx.estimates))
	}
	return fx, nil
}
