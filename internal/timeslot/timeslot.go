// Package timeslot implements the paper's time discretization (§4.2):
// timestamps are projected onto discrete time slots of size Δt relative to
// a base timestamp t0 (Formula 2), with a remainder preserving the exact
// instant (Formula 3). Slots wrap onto a one-week temporal graph of
// 7·(day/Δt) nodes (Figure 5b), capturing weekly periodicity.
package timeslot

import (
	"fmt"
	"time"
)

// SecondsPerDay and SecondsPerWeek are plain clock constants.
const (
	SecondsPerDay  = 24 * 60 * 60
	SecondsPerWeek = 7 * SecondsPerDay
)

// Slotter projects timestamps (seconds since t0) onto time slots.
type Slotter struct {
	// Delta is the slot size Δt in seconds (the paper's default is 5 min).
	Delta float64
	// SlotsPerDay and SlotsPerWeek are derived from Delta.
	SlotsPerDay  int
	SlotsPerWeek int
}

// New returns a Slotter for slot size delta. delta must evenly divide one
// day so the week wrap of the temporal graph is exact.
func New(delta time.Duration) (*Slotter, error) {
	sec := delta.Seconds()
	if sec <= 0 {
		return nil, fmt.Errorf("timeslot: Δt must be positive, got %v", delta)
	}
	perDay := float64(SecondsPerDay) / sec
	if perDay != float64(int(perDay)) {
		return nil, fmt.Errorf("timeslot: Δt %v must evenly divide one day", delta)
	}
	return &Slotter{
		Delta:        sec,
		SlotsPerDay:  int(perDay),
		SlotsPerWeek: 7 * int(perDay),
	}, nil
}

// Slot returns the absolute slot index tp = ⌊(t−t0)/Δt⌋ (Formula 2).
// t is seconds since the base timestamp and must be non-negative (the paper
// requires t0 ≤ every timestamp in the data).
func (s *Slotter) Slot(t float64) int {
	if t < 0 {
		panic(fmt.Sprintf("timeslot: timestamp %v is before the base timestamp", t))
	}
	return int(t / s.Delta)
}

// Remainder returns tr = t − t0 − tp·Δt ∈ [0, Δt) (Formula 3).
func (s *Slotter) Remainder(t float64) float64 {
	return t - float64(float64(s.Slot(t))*s.Delta)
}

// Split returns both the slot and the remainder of t.
func (s *Slotter) Split(t float64) (slot int, remainder float64) {
	slot = s.Slot(t)
	return slot, t - float64(float64(slot)*s.Delta)
}

// WeekSlot maps an absolute slot index onto the temporal graph node
// tp % SlotsPerWeek (the paper's tp % 2016 for Δt = 5 min).
func (s *Slotter) WeekSlot(slot int) int {
	if slot < 0 {
		panic(fmt.Sprintf("timeslot: negative slot %d", slot))
	}
	return slot % s.SlotsPerWeek
}

// NormalizedRemainder scales a remainder to [0, 1) so it can enter a neural
// network alongside other unit-scale features.
func (s *Slotter) NormalizedRemainder(t float64) float64 {
	return s.Remainder(t) / s.Delta
}

// DayOfWeek returns the zero-based day (0=the week's first day) of a week
// slot.
func (s *Slotter) DayOfWeek(weekSlot int) int { return weekSlot / s.SlotsPerDay }

// SlotOfDay returns the position of a week slot within its day.
func (s *Slotter) SlotOfDay(weekSlot int) int { return weekSlot % s.SlotsPerDay }
