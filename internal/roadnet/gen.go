package roadnet

import (
	"fmt"
	"math/rand"

	"deepod/internal/geo"
)

// CityConfig parameterizes the synthetic city generator. The generator
// produces a perturbed grid of two-way local streets overlaid with a sparser
// set of faster arterials, plus a fraction of one-way streets — enough
// structural richness that many OD pairs admit multiple routes with
// different travel times (the property Example 1 of the paper hinges on).
type CityConfig struct {
	// Name labels the city in reports (e.g. "chengdu-s").
	Name string
	// RowsxCols intersections.
	Rows, Cols int
	// BlockMeters is the nominal spacing between intersections.
	BlockMeters float64
	// Jitter displaces intersections by up to this fraction of a block.
	Jitter float64
	// ArterialEvery marks every k-th row/column as arterial (0 disables).
	ArterialEvery int
	// OneWayFrac removes the reverse direction of this fraction of local
	// street pairs.
	OneWayFrac float64
	// LocalSpeed and ArterialSpeed are free-flow speeds in m/s.
	LocalSpeed, ArterialSpeed float64
	// RiverAfterRow, when ≥ 0, removes every vertical street between row
	// RiverAfterRow and RiverAfterRow+1 except RiverBridges evenly spaced
	// bridges — a horizontal barrier (river/railway) that decouples network
	// distance from Euclidean distance, as in real cities.
	RiverAfterRow int
	RiverBridges  int
	// RailAfterCol does the same vertically (e.g. a railway corridor).
	RailAfterCol  int
	RailCrossings int
	// Seed drives all randomness; same config + seed = same city.
	Seed int64
}

// Validate checks the configuration for obvious mistakes.
func (c CityConfig) Validate() error {
	if c.Rows < 2 || c.Cols < 2 {
		return fmt.Errorf("roadnet: city needs at least a 2x2 grid, got %dx%d", c.Rows, c.Cols)
	}
	if c.BlockMeters <= 0 {
		return fmt.Errorf("roadnet: block size must be positive, got %v", c.BlockMeters)
	}
	if c.Jitter < 0 || c.Jitter >= 0.5 {
		return fmt.Errorf("roadnet: jitter must be in [0, 0.5), got %v", c.Jitter)
	}
	if c.OneWayFrac < 0 || c.OneWayFrac > 0.9 {
		return fmt.Errorf("roadnet: one-way fraction must be in [0, 0.9], got %v", c.OneWayFrac)
	}
	if c.LocalSpeed <= 0 || c.ArterialSpeed <= 0 {
		return fmt.Errorf("roadnet: speeds must be positive")
	}
	return nil
}

// SmallCity returns a compact default config suitable for tests.
func SmallCity(name string, seed int64) CityConfig {
	return CityConfig{
		Name: name, Rows: 8, Cols: 8, BlockMeters: 250,
		Jitter: 0.15, ArterialEvery: 3, OneWayFrac: 0.1,
		LocalSpeed: 8.3, ArterialSpeed: 13.9, // 30 km/h and 50 km/h
		RiverAfterRow: -1, RailAfterCol: -1,
		Seed: seed,
	}
}

// CityPreset returns one of the three named presets mirroring the relative
// sizes of the paper's road networks (CRN < XRN ≪ BRN).
func CityPreset(name string) (CityConfig, error) {
	switch name {
	case "chengdu-s":
		c := SmallCity(name, 11)
		c.Rows, c.Cols = 10, 10
		c.RiverAfterRow, c.RiverBridges = 4, 2
		return c, nil
	case "xian-s":
		c := SmallCity(name, 23)
		c.Rows, c.Cols = 12, 11
		c.RiverAfterRow, c.RiverBridges = 5, 2
		return c, nil
	case "beijing-s":
		c := SmallCity(name, 37)
		c.Rows, c.Cols = 18, 16
		c.RiverAfterRow, c.RiverBridges = 8, 3
		c.RailAfterCol, c.RailCrossings = 7, 3
		return c, nil
	}
	return CityConfig{}, fmt.Errorf("roadnet: unknown city preset %q (want chengdu-s, xian-s or beijing-s)", name)
}

// GenerateCity builds a synthetic road network from cfg.
func GenerateCity(cfg CityConfig) (*Graph, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	vertices := make([]Vertex, 0, cfg.Rows*cfg.Cols)
	vid := func(r, c int) VertexID { return VertexID(r*cfg.Cols + c) }
	for r := 0; r < cfg.Rows; r++ {
		for c := 0; c < cfg.Cols; c++ {
			jx := float64((float64(2*float64(rng.Float64())) - 1) * cfg.Jitter * cfg.BlockMeters)
			jy := float64((float64(2*float64(rng.Float64())) - 1) * cfg.Jitter * cfg.BlockMeters)
			vertices = append(vertices, Vertex{
				ID: vid(r, c),
				Pos: geo.Point{
					X: float64(float64(c)*cfg.BlockMeters) + jx,
					Y: float64(float64(r)*cfg.BlockMeters) + jy,
				},
			})
		}
	}

	isArterialLine := func(i int) bool {
		return cfg.ArterialEvery > 0 && i%cfg.ArterialEvery == 0
	}

	var edges []Edge
	addPair := func(a, b VertexID, class RoadClass) {
		length := geo.Dist(vertices[a].Pos, vertices[b].Pos)
		speed := cfg.LocalSpeed
		if class == Arterial {
			speed = cfg.ArterialSpeed
		}
		oneWay := class == Local && rng.Float64() < cfg.OneWayFrac
		edges = append(edges, Edge{ID: EdgeID(len(edges)), From: a, To: b, Length: length, FreeSpeed: speed, Class: class})
		if !oneWay {
			edges = append(edges, Edge{ID: EdgeID(len(edges)), From: b, To: a, Length: length, FreeSpeed: speed, Class: class})
		}
	}
	// Barrier crossings: evenly spaced bridge columns / crossing rows.
	spaced := func(n, total int) map[int]bool {
		keep := map[int]bool{}
		if n <= 0 {
			return keep
		}
		for i := 0; i < n; i++ {
			keep[(2*i+1)*total/(2*n)] = true
		}
		return keep
	}
	bridgeCols := spaced(cfg.RiverBridges, cfg.Cols)
	crossRows := spaced(cfg.RailCrossings, cfg.Rows)

	for r := 0; r < cfg.Rows; r++ {
		for c := 0; c < cfg.Cols; c++ {
			if c+1 < cfg.Cols { // horizontal street along row r
				if cfg.RailAfterCol >= 0 && c == cfg.RailAfterCol && !crossRows[r] {
					// severed by the rail corridor
				} else {
					class := Local
					if isArterialLine(r) {
						class = Arterial
					}
					// Rail crossings are two-way arterials so neither side
					// can become unreachable.
					if cfg.RailAfterCol >= 0 && c == cfg.RailAfterCol {
						class = Arterial
					}
					addPair(vid(r, c), vid(r, c+1), class)
				}
			}
			if r+1 < cfg.Rows { // vertical street along column c
				if cfg.RiverAfterRow >= 0 && r == cfg.RiverAfterRow && !bridgeCols[c] {
					// severed by the river
					continue
				}
				class := Local
				if isArterialLine(c) {
					class = Arterial
				}
				// Bridges are fast arterials.
				if cfg.RiverAfterRow >= 0 && r == cfg.RiverAfterRow {
					class = Arterial
				}
				addPair(vid(r, c), vid(r+1, c), class)
			}
		}
	}
	return NewGraph(vertices, edges)
}
