package sim

// deque.go mirrors the ring-buffer deque: growing the backing array is a
// live-set-bounded allocation the allowlist admits; any other escape in the
// file fails, same as the real deque.

type deque struct{ buf []int }

func (d *deque) grow(c int) {
	d.buf = make([]int, c) // allowlisted escape: silent
}

type cursor struct{ i int }

func newCursor() *cursor {
	return &cursor{} // want `new heap escape on the pooled hot path: deque.go: &cursor\{\} escapes to heap`
}
