package tensor

import (
	"math"
	"math/rand"
	"testing"
)

func TestArenaNewZeroedAndShaped(t *testing.T) {
	var a Arena
	x := a.New(3, 4)
	if x.Size() != 12 || x.Dims() != 2 || x.Shape[0] != 3 || x.Shape[1] != 4 {
		t.Fatalf("bad shape: %v", x.Shape)
	}
	for i, v := range x.Data {
		if v != 0 {
			t.Fatalf("element %d not zeroed: %v", i, v)
		}
	}
}

func TestArenaResetReusesAndZeroes(t *testing.T) {
	var a Arena
	x := a.New(8)
	for i := range x.Data {
		x.Data[i] = 7
	}
	a.Reset()
	y := a.New(8)
	if &x.Data[0] != &y.Data[0] {
		t.Fatal("Reset did not reuse the slab")
	}
	for i, v := range y.Data {
		if v != 0 {
			t.Fatalf("reused element %d not re-zeroed: %v", i, v)
		}
	}
}

// TestArenaNewUninit: NewUninit hands out the slab as an earlier tensor
// left it, shaped like New's, and New after it still zeroes.
func TestArenaNewUninit(t *testing.T) {
	var a Arena
	x := a.New(2, 4)
	x.Fill(7)
	a.Reset()
	y := a.NewUninit(2, 4)
	if &x.Data[0] != &y.Data[0] || y.Size() != 8 || y.Shape[0] != 2 || y.Shape[1] != 4 {
		t.Fatalf("NewUninit after Reset: shape %v, reused %v", y.Shape, &x.Data[0] == &y.Data[0])
	}
	for i, v := range y.Data {
		if v != 7 {
			t.Fatalf("element %d: %v, want the 7 left there", i, v)
		}
	}
	a.Reset()
	for i, v := range a.New(2, 4).Data {
		if v != 0 {
			t.Fatalf("New after NewUninit: element %d not zeroed: %v", i, v)
		}
	}
}

// poisoned returns an arena whose first slab holds NaN: a kernel that
// reads an element of a NewUninit output before writing it shows NaN.
func poisoned() *Arena {
	a := new(Arena)
	a.New(arenaDataSlab).Fill(math.NaN())
	a.Reset()
	return a
}

// TestConv2DIntoPoisonedArena: Conv2DInto's output and kernel taps skip
// the arena's zeroing, so the conv must write every element itself: on an
// arena full of NaN it computes the bits it computes on a fresh one.
func TestConv2DIntoPoisonedArena(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, tc := range []struct{ n, c, h, w, oc, kh, kw, padH, padW, str int }{
		{3, 1, 12, 10, 4, 3, 3, 1, 1, 2}, // ext.conv1
		{2, 4, 6, 5, 5, 3, 3, 1, 1, 2},   // a channel count that is not a multiple of 4
		{5, 1, 2, 16, 4, 3, 1, 1, 0, 1},  // tie.conv1, the column kernel
	} {
		x := randTensor(rng, tc.n, tc.c, tc.h, tc.w)
		k := randTensor(rng, tc.oc, tc.c, tc.kh, tc.kw)
		want := conv(x, k, tc.padH, tc.padW, tc.str, tc.str)
		got := Conv2DInto(poisoned(), x, k, tc.padH, tc.padW, tc.str, tc.str)
		for i, v := range want.Data {
			if math.Float64bits(got.Data[i]) != math.Float64bits(v) {
				t.Fatalf("%+v: output %d is %v on a poisoned arena, %v on a fresh one", tc, i, got.Data[i], v)
			}
		}
	}
}

func TestArenaTensorsAreDisjoint(t *testing.T) {
	var a Arena
	x := a.New(4)
	y := a.New(4)
	x.Fill(1)
	y.Fill(2)
	for _, v := range x.Data {
		if v != 1 {
			t.Fatalf("x overwritten: %v", x.Data)
		}
	}
}

func TestArenaLargeRequestAndHeaderStability(t *testing.T) {
	var a Arena
	small := a.New(2)
	big := a.New(arenaDataSlab + 100) // dedicated slab
	if big.Size() != arenaDataSlab+100 {
		t.Fatalf("big size %d", big.Size())
	}
	// Allocate enough headers to force new header slabs; earlier pointers
	// must stay valid (chunked slabs never move).
	for i := 0; i < 3*arenaHdrSlab; i++ {
		a.New(1)
	}
	if small.Size() != 2 || small.Data[0] != 0 {
		t.Fatal("early tensor corrupted by arena growth")
	}
	a.Reset()
	again := a.New(2)
	if again.Size() != 2 {
		t.Fatal("reuse after growth failed")
	}
}

func TestArenaManyShapes(t *testing.T) {
	var a Arena
	for round := 0; round < 3; round++ {
		for i := 1; i < 40; i++ {
			x := a.New(i, 3)
			if x.Size() != i*3 {
				t.Fatalf("round %d: size %d != %d", round, x.Size(), i*3)
			}
		}
		a.Reset()
	}
}
