package obs

import "testing"

func TestRing(t *testing.T) {
	r := NewRing[int](3)
	if r.Len() != 0 {
		t.Fatalf("len = %d, want 0", r.Len())
	}
	evicted := 0
	for i := 1; i <= 5; i++ {
		if r.Push(i) {
			evicted++
		}
	}
	if r.Len() != 3 || evicted != 2 {
		t.Fatalf("len = %d evicted = %d, want 3 and 2", r.Len(), evicted)
	}
	for i, want := range []int{3, 4, 5} {
		if got := r.At(i); got != want {
			t.Fatalf("At(%d) = %d, want %d", i, got, want)
		}
	}
	one := NewRing[int](0)
	one.Push(1)
	if !one.Push(2) || one.Len() != 1 || one.At(0) != 2 {
		t.Fatal("capacity below 1 not clamped to 1")
	}
}
