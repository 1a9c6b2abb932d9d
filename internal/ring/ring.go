// Package ring provides the head-indexed FIFO used on the per-packet hot
// paths (link deliveries, switch lookup/egress queues, MAC TX queues):
// Push appends, Pop advances a head index, and the dead prefix is
// compacted only when it dominates the backing array. Steady-state
// queueing therefore costs O(1) per element with no allocation and no
// per-element copy-down, which is what keeps the gen→port→link→mon path
// at 0.0 allocs/packet.
package ring

// FIFO is a head-indexed queue of T. The zero value is an empty queue.
type FIFO[T any] struct {
	buf  []T
	head int
}

// Len returns the number of queued elements.
func (r *FIFO[T]) Len() int { return len(r.buf) - r.head }

// Push appends v to the tail.
func (r *FIFO[T]) Push(v T) { r.buf = append(r.buf, v) }

// Peek returns a pointer to the head element without removing it. It
// must not be called on an empty FIFO, and the pointer is invalidated by
// the next Push or Pop.
func (r *FIFO[T]) Peek() *T { return &r.buf[r.head] }

// Pop removes and returns the head element, zeroing its slot so the
// backing array never retains stale references. Popping the last element
// rewinds to a full empty buffer; otherwise the dead prefix is compacted
// once it is both non-trivial (≥64 slots) and at least half the array.
// It must not be called on an empty FIFO.
func (r *FIFO[T]) Pop() T {
	var zero T
	v := r.buf[r.head]
	r.buf[r.head] = zero
	r.head++
	if r.head == len(r.buf) {
		r.buf = r.buf[:0]
		r.head = 0
	} else if r.head >= 64 && r.head*2 >= len(r.buf) {
		n := copy(r.buf, r.buf[r.head:])
		for i := n; i < len(r.buf); i++ {
			r.buf[i] = zero
		}
		r.buf = r.buf[:n]
		r.head = 0
	}
	return v
}
