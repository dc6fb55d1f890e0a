package tensor

import "testing"

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
