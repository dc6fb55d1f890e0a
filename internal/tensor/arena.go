package tensor

import "fmt"

// Arena is a bump allocator for short-lived tensors. A computation tape
// owns one arena, carves every interior value and gradient out of it, and
// calls Reset between batches; after the first pass over the largest batch
// the slabs are warm and a forward/backward step performs O(1) heap
// allocations instead of O(nodes).
//
// An Arena is not safe for concurrent use — each training worker and each
// pooled eval tape owns its own.
type Arena struct {
	data    [][]float64 // float slabs; data[dataIdx][dataOff:] is free
	dataIdx int
	dataOff int

	hdrs    [][]Tensor // Tensor-header slabs
	hdrIdx  int
	hdrOff  int
	ints    [][]int // shape-backing slabs
	intsIdx int
	intsOff int
}

const (
	arenaDataSlab = 16 * 1024 // floats per slab (128 KiB)
	arenaHdrSlab  = 512       // Tensor headers per slab
	arenaIntSlab  = 2048      // shape ints per slab
)

// Reset reclaims every tensor handed out since the last Reset. The slabs
// are kept, so a steady-state tape stops allocating entirely. Tensors
// obtained before Reset must no longer be used.
func (a *Arena) Reset() {
	a.dataIdx, a.dataOff = 0, 0
	a.hdrIdx, a.hdrOff = 0, 0
	a.intsIdx, a.intsOff = 0, 0
}

// New carves a zeroed tensor of the given shape out of the arena.
func (a *Arena) New(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d <= 0 {
			panic("tensor: arena New with non-positive dimension")
		}
		n *= d
	}
	t := a.hdr()
	t.Shape = a.shape(shape)
	t.Data = a.floats(n)
	return t
}

// FromSlice wraps data (not copied) in an arena-backed header of the given
// shape. The fused batched forward uses this for zero-copy row views into a
// [B×d] activation matrix: the header and shape live in the arena slabs, so
// carving B views per batch costs no heap allocations in steady state. The
// data slice itself is the caller's — it is not reclaimed by Reset, but the
// header must not be used after Reset like any other arena tensor.
func (a *Arena) FromSlice(data []float64, shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d <= 0 {
			panic("tensor: arena FromSlice with non-positive dimension")
		}
		n *= d
	}
	if n != len(data) {
		panic(fmt.Sprintf("tensor: arena FromSlice shape %v wants %d elements, got %d", shape, n, len(data)))
	}
	t := a.hdr()
	t.Shape = a.shape(shape)
	t.Data = data
	return t
}

// hdr returns a fresh Tensor header. Headers live in fixed-size slabs so
// previously returned pointers stay valid as the arena grows.
func (a *Arena) hdr() *Tensor {
	for {
		if a.hdrIdx < len(a.hdrs) {
			slab := a.hdrs[a.hdrIdx]
			if a.hdrOff < len(slab) {
				t := &slab[a.hdrOff]
				a.hdrOff++
				return t
			}
			a.hdrIdx++
			a.hdrOff = 0
			continue
		}
		a.hdrs = append(a.hdrs, make([]Tensor, arenaHdrSlab))
	}
}

// shape copies dims into the int slab (shapes are tiny; a dedicated slab
// keeps them off the heap).
func (a *Arena) shape(dims []int) []int {
	n := len(dims)
	for {
		if a.intsIdx < len(a.ints) {
			slab := a.ints[a.intsIdx]
			if a.intsOff+n <= len(slab) {
				s := slab[a.intsOff : a.intsOff+n : a.intsOff+n]
				a.intsOff += n
				copy(s, dims)
				return s
			}
			a.intsIdx++
			a.intsOff = 0
			continue
		}
		size := arenaIntSlab
		if n > size {
			size = n
		}
		a.ints = append(a.ints, make([]int, size))
	}
}

// floats returns a zeroed slice of n floats from the data slabs. Requests
// larger than a slab get a dedicated slab of exactly that size, which is
// reused on later passes because tape allocation sequences repeat.
func (a *Arena) floats(n int) []float64 {
	for {
		if a.dataIdx < len(a.data) {
			slab := a.data[a.dataIdx]
			if a.dataOff+n <= len(slab) {
				s := slab[a.dataOff : a.dataOff+n : a.dataOff+n]
				a.dataOff += n
				for i := range s {
					s[i] = 0
				}
				return s
			}
			a.dataIdx++
			a.dataOff = 0
			continue
		}
		size := arenaDataSlab
		if n > size {
			size = n
		}
		a.data = append(a.data, make([]float64, size))
	}
}
