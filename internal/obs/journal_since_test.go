package obs

import "testing"

// TestJournalSinceEdgeCases pins the cursor arithmetic at the
// boundaries pollers actually hit: cursors before the ring's memory,
// past its head, and negative.
func TestJournalSinceEdgeCases(t *testing.T) {
	j := NewJournal(4)
	for i := 0; i < 6; i++ {
		j.Append(Event{T: float64(i), Type: EventHarvest})
	}

	// Negative cursors behave like 0: the full retained tail, with the
	// wrapped-away prefix documented — never a panic or a phantom gap.
	for _, seq := range []int64{-1, -100} {
		got := j.Since(seq)
		if len(got) != 4 || got[0].Seq != 3 {
			t.Fatalf("Since(%d) = %+v, want the 4-event tail", seq, got)
		}
		d := j.DocSince(seq)
		if err := d.Validate(); err != nil {
			t.Fatalf("DocSince(%d) invalid: %v", seq, err)
		}
		if d.Missing != 2 || len(d.Events) != 4 {
			t.Fatalf("DocSince(%d): missing %d events %d, want 2/4", seq, d.Missing, len(d.Events))
		}
	}

	// Cursors at or beyond the head are a quiet tail, not an error: no
	// events, no invented gap.
	for _, seq := range []int64{6, 7, 1 << 40} {
		if got := j.Since(seq); len(got) != 0 {
			t.Fatalf("Since(%d) = %+v, want empty", seq, got)
		}
		d := j.DocSince(seq)
		if len(d.Events) != 0 || d.Missing != 0 {
			t.Fatalf("DocSince(%d): missing %d events %d, want 0/0", seq, d.Missing, len(d.Events))
		}
	}

	// A wrapped ring answering a stale in-gap cursor documents exactly
	// the overwritten span of sequence numbers.
	d := j.DocSince(1)
	if d.Missing != 1 || len(d.Events) != 4 {
		t.Fatalf("DocSince(1): missing %d events %d, want 1/4", d.Missing, len(d.Events))
	}
	if d.Dropped != 2 {
		t.Fatalf("DocSince(1): dropped %d, want 2", d.Dropped)
	}
	// An in-window cursor reports no loss even though the ring dropped
	// earlier events: Missing is relative to the cursor, Dropped to the
	// run.
	if d := j.DocSince(4); d.Missing != 0 || len(d.Events) != 2 || d.Dropped != 2 {
		t.Fatalf("DocSince(4): missing %d events %d dropped %d, want 0/2/2", d.Missing, len(d.Events), d.Dropped)
	}

	// Nil journals serve every cursor as a valid empty document.
	var nj *Journal
	for _, seq := range []int64{-1, 0, 9} {
		d := nj.DocSince(seq)
		if d == nil || d.Validate() != nil || d.Missing != 0 || len(d.Events) != 0 {
			t.Fatalf("nil DocSince(%d) must be a valid empty doc", seq)
		}
	}
}

func TestMissingSince(t *testing.T) {
	cases := []struct{ since, last, got, want int64 }{
		{0, 0, 0, 0},     // empty journal
		{0, 6, 4, 2},     // wrapped: asked for 6, ring held 4
		{4, 6, 2, 0},     // in-window cursor
		{6, 6, 0, 0},     // cursor at head
		{9, 6, 0, 0},     // cursor beyond head
		{-5, 6, 4, 2},    // negative clamps to 0
		{2, 6, 4, 0},     // exactly the retained window
		{0, 100, 0, 100}, // everything gone
	}
	for _, c := range cases {
		if got := missingSince(c.since, c.last, c.got); got != c.want {
			t.Errorf("missingSince(%d, %d, %d) = %d, want %d", c.since, c.last, c.got, got, c.want)
		}
	}
}

// TestJournalDrainTo pins the serial merge's drain primitive: events
// move in order, get re-stamped by the destination, the returned
// cursor resumes cleanly, wrapped-away events are skipped, and a quiet
// drain allocates nothing.
func TestJournalDrainTo(t *testing.T) {
	src := NewJournal(4)
	dst := NewJournal(16)
	for i := 0; i < 3; i++ {
		src.Append(Event{T: float64(i), Type: EventHarvest})
	}
	cur := src.DrainTo(dst, 0)
	if cur != 3 || dst.LastSeq() != 3 {
		t.Fatalf("first drain: cursor %d dst seq %d, want 3/3", cur, dst.LastSeq())
	}

	// Incremental drains move only the new tail.
	src.Append(Event{T: 3, Type: EventRevert})
	cur = src.DrainTo(dst, cur)
	if cur != 4 || dst.LastSeq() != 4 {
		t.Fatalf("incremental drain: cursor %d dst seq %d, want 4/4", cur, dst.LastSeq())
	}
	got := dst.Since(0)
	for i, ev := range got {
		if ev.Seq != int64(i+1) || ev.T != float64(i) {
			t.Fatalf("drained event %d = %+v, want seq %d t %d", i, ev, i+1, i)
		}
	}

	// A stale cursor against a wrapped ring drains only what the ring
	// still retains — same clamping as Since.
	for i := 4; i < 8; i++ {
		src.Append(Event{T: float64(i), Type: EventHarvest})
	}
	dst2 := NewJournal(16)
	if cur := src.DrainTo(dst2, 0); cur != 8 {
		t.Fatalf("wrapped drain cursor = %d, want 8", cur)
	}
	if tail := dst2.Since(0); len(tail) != 4 || tail[0].T != 4 {
		t.Fatalf("wrapped drain moved %+v, want the 4-event tail from t=4", tail)
	}

	// Cursor at (or past) the head: nothing moves, nothing allocates —
	// this is every quiet interval of an instrumented run.
	if n := testing.AllocsPerRun(100, func() { src.DrainTo(dst, 8) }); n != 0 {
		t.Fatalf("quiet DrainTo allocates %.0f objects per call, want 0", n)
	}

	// Nil source passes the cursor through.
	var nj *Journal
	if cur := nj.DrainTo(dst, 7); cur != 7 {
		t.Fatalf("nil DrainTo cursor = %d, want 7", cur)
	}
}

// TestJournalAppendDrainAllocFree pins a busy merge interval: appending
// to a staging journal and draining it into the fleet journal allocates
// nothing (a stamped copy escaping to the heap would cost two per event).
func TestJournalAppendDrainAllocFree(t *testing.T) {
	staging, fleet := NewJournal(4), NewJournal(16)
	var cur int64
	n := testing.AllocsPerRun(100, func() {
		staging.Append(Event{T: 1, Type: EventHarvest})
		cur = staging.DrainTo(fleet, cur)
	})
	if n != 0 || cur != 101 {
		t.Fatalf("append+drain: %.0f allocs per call, cursor %d; want 0 allocs, cursor 101", n, cur)
	}
}
