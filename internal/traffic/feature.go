package traffic

import (
	"fmt"
	"sync/atomic"

	"deepod/internal/geo"
	"deepod/internal/obs"
	"deepod/internal/roadnet"
	"deepod/internal/traj"
)

// cellMeters is the live grid's cell. The live layer overwrites cells of
// the matrix the OD encoder consumes, so it must be the speed-grid cell the
// model was trained with (deepod.CityOptions.GridCellMeters' default);
// NewFeatureSource rejects a prior of other dimensions.
const cellMeters = 250

// FeatureConfig tunes how live edge speeds become serving-time model
// features.
type FeatureConfig struct {
	// MinCoverage is the store coverage below which the live layer is
	// ignored entirely and the prior served as-is (default 0.02): a handful
	// of probes must not distort city-wide features.
	MinCoverage float64
	// StaleAfterSec bounds |departure − newest probe| (default 600): beyond
	// it the live view says nothing about the requested departure time and
	// the prior is served as-is. Covers both directions — a store that
	// stopped receiving probes, and a request for a far-future departure.
	StaleAfterSec float64
	// Registry receives tte_traffic_* metrics (default obs.Default()).
	Registry *obs.Registry
}

func (c *FeatureConfig) fill() {
	if c.MinCoverage <= 0 {
		c.MinCoverage = 0.02
	}
	if c.StaleAfterSec <= 0 {
		c.StaleAfterSec = 600
	}
	if c.Registry == nil {
		c.Registry = obs.Default()
	}
}

// PriorFunc returns the training-time external features (congestion prior)
// for a departure time — typically citysim.SpeedGridder.External or a
// checkpoint-loaded equivalent.
type PriorFunc func(departSec float64) *traj.ExternalFeatures

// mergedEntry caches the live bundle of one (snapshot, prior matrix) pair,
// keyed by the identity of its inputs: snapshots are immutable and the
// prior gridder returns one matrix per period, so data-pointer equality is
// exact. The bundle is handed to every request of the pair, read-only, so a
// live answer on an unchanged snapshot allocates nothing; a request whose
// prior carries another weather gets a copy with that weather.
type mergedEntry struct {
	snap      *Snapshot
	priorGrid *float64 // &prior.SpeedGrid[0]
	ext       *traj.ExternalFeatures
}

// FeatureSource feeds live traffic into the model's traffic-condition
// feature: per-cell mean speeds from the store snapshot overwrite the
// matching cells of the training-time prior matrix, and the result is
// handed to the OD encoder as the request's ExternalFeatures. When the
// store is cold or stale relative to the requested departure, the prior is
// served unchanged — estimates degrade to exactly the pre-traffic behavior,
// never to garbage.
type FeatureSource struct {
	cfg   FeatureConfig
	store *Store
	prior PriorFunc
	grid  *geo.Grid
	// cellEdges is roadnet.CellEdges over grid, the mapping the prior's
	// cells aggregate too.
	cellEdges [][]roadnet.EdgeID

	cached atomic.Pointer[mergedEntry]

	mLive     *obs.Counter
	mPrior    *obs.Counter
	mMerges   *obs.Counter
	mCoverage *obs.Gauge
}

// NewFeatureSource builds a source over the graph's cell grid. prior must
// be non-nil and answer with a matrix of that grid's dimensions: a prior
// built on another cell would make every estimate fall back to it, so the
// mismatch is an error here rather than a silent prior-only service. store
// may be warming.
func NewFeatureSource(g *roadnet.Graph, store *Store, prior PriorFunc, cfg FeatureConfig) (*FeatureSource, error) {
	cfg.fill()
	if store == nil || prior == nil {
		return nil, fmt.Errorf("traffic: feature source needs a store and a prior")
	}
	grid, err := geo.NewGrid(g.Bounds(), cellMeters)
	if err != nil {
		return nil, fmt.Errorf("traffic: feature grid: %w", err)
	}
	if p := prior(0); p == nil || p.GridRows != grid.Rows || p.GridCols != grid.Cols || len(p.SpeedGrid) != grid.NumCells() {
		got := "no matrix"
		if p != nil {
			got = fmt.Sprintf("a %d×%d matrix of %d cells", p.GridRows, p.GridCols, len(p.SpeedGrid))
		}
		return nil, fmt.Errorf("traffic: the prior answers %s, the live grid is %d×%d at %d m: the model's speed grid must use the same cell", got, grid.Rows, grid.Cols, cellMeters)
	}
	fs := &FeatureSource{
		cfg:       cfg,
		store:     store,
		prior:     prior,
		grid:      grid,
		cellEdges: roadnet.CellEdges(g, grid),
	}
	reg := cfg.Registry
	reg.Help("tte_traffic_features_total", "External features served, by source (live = merged, prior = fallback).")
	reg.Help("tte_traffic_merges_total", "Live-over-prior matrix merges computed (cache misses).")
	reg.Help("tte_traffic_feature_coverage", "Store coverage at the last feature request.")
	fs.mLive = reg.Counter("tte_traffic_features_total", "source", "live")
	fs.mPrior = reg.Counter("tte_traffic_features_total", "source", "prior")
	fs.mMerges = reg.Counter("tte_traffic_merges_total")
	fs.mCoverage = reg.Gauge("tte_traffic_feature_coverage")
	return fs, nil
}

// Epoch returns the store's current traffic epoch for estimate-cache keys
// (0 while no snapshot is published, matching the no-traffic behavior).
func (fs *FeatureSource) Epoch() uint64 {
	if sn := fs.store.Snapshot(); sn != nil {
		return sn.Epoch
	}
	return 0
}

// External returns the features for a departure: the prior with live cell
// speeds merged in, or the prior untouched when the store is cold, stale
// for this departure, or dimensioned differently from the model's grid.
// The second return reports which path answered — true when live speeds
// were merged, false on the prior fallback — so the flight recorder can
// stamp each served estimate with the feature provenance replay needs.
// Safe for concurrent use by the inference workers.
func (fs *FeatureSource) External(departSec float64) (*traj.ExternalFeatures, bool) {
	p := fs.prior(departSec)
	sn := fs.store.Snapshot()
	if sn == nil {
		fs.mPrior.Inc()
		return p, false
	}
	fs.mCoverage.Set(sn.Coverage())
	if sn.Coverage() < fs.cfg.MinCoverage ||
		staleness(departSec, sn.AsOfSec) > fs.cfg.StaleAfterSec ||
		p == nil || p.GridRows != fs.grid.Rows || p.GridCols != fs.grid.Cols ||
		len(p.SpeedGrid) != len(fs.cellEdges) || len(p.SpeedGrid) == 0 {
		fs.mPrior.Inc()
		return p, false
	}
	fs.mLive.Inc()
	return fs.merged(sn, p), true
}

// merged returns the live bundle of snapshot sn over the prior p: p's
// weather and p's matrix with the cells sn covers overwritten.
func (fs *FeatureSource) merged(sn *Snapshot, p *traj.ExternalFeatures) *traj.ExternalFeatures {
	if e := fs.cached.Load(); e != nil && e.snap == sn && e.priorGrid == &p.SpeedGrid[0] {
		if e.ext.Weather == p.Weather {
			return e.ext
		}
		c := *e.ext
		c.Weather = p.Weather
		return &c
	}
	grid := make([]float64, len(p.SpeedGrid))
	copy(grid, p.SpeedGrid)
	for ci, edges := range fs.cellEdges {
		var sum float64
		n := 0
		for _, e := range edges {
			if v, ok := sn.Speed(e); ok {
				sum += v
				n++
			}
		}
		if n > 0 {
			grid[ci] = sum / float64(n)
		}
	}
	ext := &traj.ExternalFeatures{Weather: p.Weather, SpeedGrid: grid, GridRows: p.GridRows, GridCols: p.GridCols}
	fs.cached.Store(&mergedEntry{snap: sn, priorGrid: &p.SpeedGrid[0], ext: ext})
	fs.mMerges.Inc()
	return ext
}
