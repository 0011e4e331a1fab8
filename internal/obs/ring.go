package obs

// ring is the bounded drop-oldest buffer under every obs store: the
// journal, the tracer, and the timeline's raw samples and rollup bins.
// Pushes since the last reset are numbered 1, 2, 3, … and the item
// numbered s lives in slot (s-1) mod cap, so the retained window is
// (head-n, head], a sequence cursor indexes straight into the buffer,
// and the overwritten count is head-n. Callers lock around it.
type ring[T any] struct {
	buf  []T
	n    int   // retained count
	head int64 // sequence number of the newest push (0: none)
	// stamp, when set, writes each item's sequence number into it as
	// it is pushed (Event.Seq, Span.Seq).
	stamp func(*T, int64)
}

func newRing[T any](capacity int, stamp func(*T, int64)) ring[T] {
	return ring[T]{buf: make([]T, capacity), stamp: stamp}
}

func (r *ring[T]) slot(seq int64) *T {
	i := int(seq-1) % len(r.buf)
	return &r.buf[i]
}

// push stores v under the next sequence number, overwriting the oldest
// item once full, and returns that number.
func (r *ring[T]) push(v T) int64 {
	r.head++
	p := r.slot(r.head)
	*p = v
	if r.stamp != nil {
		// Stamping in place (not &v) keeps v off the heap.
		r.stamp(p, r.head)
	}
	if r.n < len(r.buf) {
		r.n++
	}
	return r.head
}

// last returns the newest sequence number; retained and dropped count
// the items held and overwritten since the last reset; from is the
// first sequence number a read after cursor seq can return.
func (r *ring[T]) last() int64          { return r.head }
func (r *ring[T]) retained() int        { return r.n }
func (r *ring[T]) dropped() int64       { return r.head - int64(r.n) }
func (r *ring[T]) from(seq int64) int64 { return max(seq, r.dropped()) + 1 }

// appendSince appends the retained items numbered after seq to out,
// oldest first; a cursor before the retained window reads from its
// oldest item.
func (r *ring[T]) appendSince(out []T, seq int64) []T {
	for s := r.from(seq); s <= r.head; s++ {
		out = append(out, *r.slot(s))
	}
	return out
}

// drainTo pushes the retained items numbered after seq onto dst, which
// re-stamps them with its own sequence numbers, and returns r's newest
// sequence number — the caller's next cursor. It allocates nothing.
func (r *ring[T]) drainTo(dst *ring[T], seq int64) int64 {
	for s := r.from(seq); s <= r.head; s++ {
		dst.push(*r.slot(s))
	}
	return r.head
}

// reset empties the ring and restarts numbering (and the dropped count).
func (r *ring[T]) reset() { r.n, r.head = 0, 0 }

// missingSince computes how many sequence numbers in (since, last] fell
// outside the returned window of got entries. Sequence numbers are
// contiguous, so the gap is arithmetic.
func missingSince(since, last, got int64) int64 {
	if since < 0 {
		since = 0
	}
	want := last - since
	if want < 0 {
		want = 0
	}
	if m := want - got; m > 0 {
		return m
	}
	return 0
}
