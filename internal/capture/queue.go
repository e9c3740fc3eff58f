package capture

// fifo is a head-indexed FIFO queue, the capture-side twin of the CPU run
// queue in internal/sim. Pops advance the head instead of shifting the
// slice, so taking a packet off a 4096-slot ring no longer copies the rest
// of the ring forward. The live part is compacted to the front only when a
// push finds the buffer full and the popped gap is at least as large as
// the live part, so every compaction copies no more elements than were
// popped since the last one: amortized O(1) per operation, and the buffer
// stays within a small factor of the deepest backlog.
//
// Popped slots keep their stale values until overwritten; a packet's data
// belongs to the recorded train, which outlives the run anyway.
type fifo[T any] struct {
	buf  []T
	head int
}

func (q *fifo[T]) len() int { return len(q.buf) - q.head }

// items returns the queued elements in FIFO order. The slice aliases the
// queue and is valid until the next push or pop.
func (q *fifo[T]) items() []T { return q.buf[q.head:] }

func (q *fifo[T]) reset() { q.buf, q.head = q.buf[:0], 0 }

func (q *fifo[T]) push(v T) {
	if len(q.buf) == cap(q.buf) && q.head > 0 && q.head >= q.len() {
		n := copy(q.buf, q.buf[q.head:])
		q.buf, q.head = q.buf[:n], 0
	}
	q.buf = append(q.buf, v)
}

func (q *fifo[T]) pop() T {
	v := q.buf[q.head]
	q.advance(1)
	return v
}

// popN appends the first n queued elements to dst and removes them from
// the queue.
func (q *fifo[T]) popN(dst []T, n int) []T {
	dst = append(dst, q.buf[q.head:q.head+n]...)
	q.advance(n)
	return dst
}

func (q *fifo[T]) advance(n int) {
	q.head += n
	if q.head == len(q.buf) {
		q.reset()
	}
}
