package obs

// Ring is a bounded circular buffer, oldest first: the one bounded history
// in the repo. The trace store and the flight recorder's shards keep their
// retained elements in it. Not safe for concurrent use; callers guard it
// with their own lock.
type Ring[T any] struct {
	buf  []T
	head int // index of oldest
	n    int
}

// NewRing returns a ring holding at most capacity elements (minimum 1).
func NewRing[T any](capacity int) *Ring[T] {
	if capacity < 1 {
		capacity = 1
	}
	return &Ring[T]{buf: make([]T, capacity)}
}

// Push appends v, evicting the oldest element when full; evicted reports
// whether it did, so callers can count overwrites.
func (r *Ring[T]) Push(v T) (evicted bool) {
	if r.n < len(r.buf) {
		r.buf[(r.head+r.n)%len(r.buf)] = v
		r.n++
		return false
	}
	r.buf[r.head] = v
	r.head = (r.head + 1) % len(r.buf)
	return true
}

// Len returns the number of retained elements.
func (r *Ring[T]) Len() int { return r.n }

// At returns the i-th retained element, oldest first. i must be in
// [0, Len()).
func (r *Ring[T]) At(i int) T { return r.buf[(r.head+i)%len(r.buf)] }
