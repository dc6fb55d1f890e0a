package experiments

import (
	"fmt"

	"deepod/internal/citysim"
	"deepod/internal/dataset"
	"deepod/internal/roadnet"
	"deepod/internal/timeslot"
	"deepod/internal/traj"
)

// World is one synthetic city with its traffic field, speed grids, taxi
// orders and chronological splits — everything an experiment needs.
type World struct {
	City    string
	Graph   *roadnet.Graph
	Traffic *citysim.Traffic
	Grid    *citysim.SpeedGridder
	Records []traj.TripRecord
	Split   dataset.Split
}

// buildWorld generates the world for a city preset at the given scale.
func buildWorld(city string, sc Scale) (*World, error) {
	ccfg, err := roadnet.CityPreset(city)
	if err != nil {
		return nil, err
	}
	ccfg.Seed += sc.Seed
	g, err := roadnet.GenerateCity(ccfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: generating %s: %w", city, err)
	}
	horizon := float64(sc.HorizonDays) * timeslot.SecondsPerDay
	tf, err := citysim.NewTraffic(g, horizon, sc.Seed+int64(len(city)))
	if err != nil {
		return nil, err
	}
	grid, err := citysim.NewSpeedGridder(tf, sc.GridCellMeters, sc.GridPeriodSec)
	if err != nil {
		return nil, err
	}
	orders, ok := sc.Orders[city]
	if !ok {
		return nil, fmt.Errorf("experiments: scale %q has no order count for city %q", sc.Name, city)
	}
	ocfg := citysim.DefaultOrderConfig(orders, sc.Seed+int64(2*len(city)))
	gen, err := citysim.NewGenerator(tf, grid, ocfg)
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
	return &World{
		City:    city,
		Graph:   g,
		Traffic: tf,
		Grid:    grid,
		Records: records,
		Split:   split,
	}, nil
}
