package timeslot

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(0); err == nil {
		t.Fatal("zero Δt accepted")
	}
	if _, err := New(-time.Minute); err == nil {
		t.Fatal("negative Δt accepted")
	}
	if _, err := New(7 * time.Minute); err == nil {
		t.Fatal("Δt not dividing a day accepted")
	}
	s, err := New(5 * time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's canonical counts: 288 slots/day, 2016 slots/week.
	if s.SlotsPerDay != 288 || s.SlotsPerWeek != 2016 {
		t.Fatalf("5-minute slots: perDay=%d perWeek=%d", s.SlotsPerDay, s.SlotsPerWeek)
	}
}

func TestSlotAndRemainder(t *testing.T) {
	s, err := New(5 * time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	// Formula 2/3: t = 17 minutes → slot 3, remainder 120 s.
	slot, rem := s.Split(17 * 60)
	if slot != 3 || rem != 120 {
		t.Fatalf("Split(17min) = (%d, %v)", slot, rem)
	}
	if s.Slot(0) != 0 || s.Remainder(0) != 0 {
		t.Fatal("base timestamp should map to slot 0, remainder 0")
	}
	if nr := s.NormalizedRemainder(17 * 60); nr != 120.0/300.0 {
		t.Fatalf("NormalizedRemainder = %v", nr)
	}
	for _, c := range []struct {
		t    float64
		want bool
	}{{0, true}, {1e18, true}, {-1, false}, {math.NaN(), false}, {300 * (1 << 63), false}, {1e300, false}} {
		if got := s.Representable(c.t); got != c.want {
			t.Fatalf("Representable(%v) = %v, want %v", c.t, got, c.want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("negative timestamp accepted")
		}
	}()
	s.Slot(-1)
}

// Property: t == slot*Δt + remainder and 0 ≤ remainder < Δt (Formulas 2-3).
func TestSplitRoundTrip(t *testing.T) {
	s, err := New(15 * time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	err = quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tt := rng.Float64() * 60 * SecondsPerDay
		slot, rem := s.Split(tt)
		if rem < 0 || rem >= s.Delta {
			return false
		}
		return abs(float64(slot)*s.Delta+rem-tt) < 1e-6
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func TestWeekSlotWraps(t *testing.T) {
	s, err := New(5 * time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	// Slot 2016 is the first slot of week 2 → node 0 (tp % 2016).
	if ws := s.WeekSlot(2016); ws != 0 {
		t.Fatalf("WeekSlot(2016) = %d", ws)
	}
	if ws := s.WeekSlot(2015); ws != 2015 {
		t.Fatalf("WeekSlot(2015) = %d", ws)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("negative slot accepted")
		}
	}()
	s.WeekSlot(-1)
}

func TestDayOfWeekSlotOfDay(t *testing.T) {
	s, err := New(time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if s.SlotsPerDay != 24 {
		t.Fatalf("hourly slots per day = %d", s.SlotsPerDay)
	}
	// Week slot 25 = day 1, hour 1.
	if s.DayOfWeek(25) != 1 || s.SlotOfDay(25) != 1 {
		t.Fatalf("slot 25 maps to day %d slot %d", s.DayOfWeek(25), s.SlotOfDay(25))
	}
}
