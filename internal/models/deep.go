package models

import (
	"math"

	"deepod/internal/nn"
	"deepod/internal/roadnet"
	"deepod/internal/traj"
)

// The deep baselines (STNN, MURAT) train under core.Fit, the loop DeepOD
// trains under, each on one [B, …] graph per mini-batch. The helpers below
// are what the two share.

// matchedODs returns the matched OD inputs of recs, row r that of recs[r].
func matchedODs(recs []*traj.TripRecord) []*traj.MatchedOD {
	ods := make([]*traj.MatchedOD, len(recs))
	for r, rec := range recs {
		ods[r] = &rec.Matched
	}
	return ods
}

// multiTaskLoss is both baselines' objective over a shard, summed over its
// records: |t̂ − t| + 0.5·|d̂ − d| per record, where t and d are the record's
// travel time and trajectory length over timeScale and distScale and row r
// of the [B, 1] nodes t̂ and d̂ belongs to recs[r].
func multiTaskLoss(tp *nn.Tape, g *roadnet.Graph, recs []*traj.TripRecord, t, dist *nn.Node, timeScale, distScale float64) *nn.Node {
	timeTgt := tp.Alloc(len(recs), 1)
	distTgt := tp.Alloc(len(recs), 1)
	for r, rec := range recs {
		timeTgt.Data[r] = rec.TravelSec / timeScale
		distTgt.Data[r] = rec.Trajectory.Length(g) / distScale
	}
	return tp.Sum(tp.Add(tp.RowAbsError(t, tp.Const(timeTgt)), tp.Scale(tp.RowAbsError(dist, tp.Const(distTgt)), 0.5)))
}

// meanTravel returns the mean travel time of records (target scaling).
func meanTravel(records []traj.TripRecord) float64 {
	var s float64
	for i := range records {
		s += records[i].TravelSec
	}
	return s / float64(len(records))
}

// meanLength returns the mean trajectory length of records in meters, at
// least 1 (distance-target scaling).
func meanLength(records []traj.TripRecord, g *roadnet.Graph) float64 {
	var s float64
	for i := range records {
		s += records[i].Trajectory.Length(g)
	}
	return math.Max(1, s/float64(len(records)))
}

// lrEveryOr returns every when positive, else the paper default of 2.
func lrEveryOr(every int) int {
	if every > 0 {
		return every
	}
	return 2
}
