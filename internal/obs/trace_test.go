package obs

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"strings"
	"testing"

	"sturgeon/internal/jsonio"
)

func TestTracerNilSafety(t *testing.T) {
	var tr *Tracer
	if ref := tr.Append(Span{Kind: SpanSearch}, SpanRef{}); ref.Valid() {
		t.Fatal("nil tracer must return the zero ref")
	}
	if tr.Since(0) != nil || tr.LastSeq() != 0 || tr.Dropped() != 0 || tr.Seed() != 0 {
		t.Fatal("nil tracer must read as empty")
	}
	if d := tr.Doc(); d == nil || d.Validate() != nil {
		t.Fatal("nil tracer must yield a valid empty doc")
	}
	if d := tr.DocSince(5); d == nil || d.Validate() != nil || d.Missing != 0 {
		t.Fatal("nil tracer DocSince must yield a valid empty doc")
	}
}

func TestTracerRingAndDocSince(t *testing.T) {
	tr := NewTracer(1, 4)
	for i := 0; i < 6; i++ {
		tr.Append(Span{Kind: SpanSearch, Start: float64(i), End: float64(i)}, SpanRef{})
	}
	if tr.LastSeq() != 6 || tr.Dropped() != 2 {
		t.Fatalf("LastSeq/Dropped = %d/%d, want 6/2", tr.LastSeq(), tr.Dropped())
	}
	all := tr.Since(0)
	if len(all) != 4 || all[0].Seq != 3 || all[3].Seq != 6 {
		t.Fatalf("ring tail wrong: %+v", all)
	}

	// A stale cursor (seq 0) asks for 6 spans; the ring retains 4, so the
	// response must document the 2-span gap.
	d := tr.DocSince(0)
	if err := d.Validate(); err != nil {
		t.Fatalf("doc invalid: %v", err)
	}
	if d.Missing != 2 || len(d.Spans) != 4 {
		t.Fatalf("DocSince(0): missing %d spans %d, want 2/4", d.Missing, len(d.Spans))
	}
	// A cursor inside the retained window sees no gap.
	if d := tr.DocSince(4); d.Missing != 0 || len(d.Spans) != 2 {
		t.Fatalf("DocSince(4): missing %d spans %d, want 0/2", d.Missing, len(d.Spans))
	}
	// Cursors at or beyond the head return empty with no phantom gap —
	// same contract as the journal's since endpoint.
	for _, seq := range []int64{6, 7, 100} {
		if d := tr.DocSince(seq); d.Missing != 0 || len(d.Spans) != 0 {
			t.Fatalf("DocSince(%d): missing %d spans %d, want 0/0", seq, d.Missing, len(d.Spans))
		}
	}
	// Negative cursors clamp to 0 rather than inventing extra gap.
	if d := tr.DocSince(-3); d.Missing != 2 || len(d.Spans) != 4 {
		t.Fatalf("DocSince(-3): missing %d spans %d, want 2/4", d.Missing, len(d.Spans))
	}
}

// TestTracerAdoptKeepsDerivedIDs pins how the fleet tracer adopts a
// staging tracer's spans through DrainTo: ids derived on the staging
// tracer survive, sequence numbers are re-stamped.
func TestTracerAdoptKeepsDerivedIDs(t *testing.T) {
	staging := NewTracer(42, 8)
	ref := staging.Append(Span{Kind: SpanGovernorAdjust, Node: "node-002", Start: 3, End: 3}, SpanRef{})
	global := NewTracer(42, 8)
	global.Append(Span{Kind: SpanCoordEpoch, Start: 0, End: 0}, SpanRef{})
	staging.DrainTo(global, 0)
	got := global.Since(0)
	if len(got) != 2 {
		t.Fatalf("expected 2 spans, got %d", len(got))
	}
	if got[1].ID != hexID(ref.ID) || got[1].Trace != hexID(ref.Trace) {
		t.Fatal("adopting must keep the staging-derived ids")
	}
	if got[1].Seq != 2 {
		t.Fatalf("adopting must re-stamp seq, got %d", got[1].Seq)
	}
}

func TestTraceDocValidateRejects(t *testing.T) {
	ok := Span{Seq: 1, Trace: hexID(7), ID: hexID(8), Kind: SpanSearch, Start: 1, End: 2}
	cases := map[string]TraceDoc{
		"bad schema":     {Schema: "nope"},
		"neg dropped":    {Schema: TraceSchema, Dropped: -1},
		"neg missing":    {Schema: TraceSchema, Missing: -1},
		"empty kind":     {Schema: TraceSchema, Spans: []Span{{Seq: 1, Trace: hexID(7), ID: hexID(8), Start: 1, End: 1}}},
		"seq repeat":     {Schema: TraceSchema, Spans: []Span{ok, ok}},
		"short id":       {Schema: TraceSchema, Spans: []Span{{Seq: 1, Trace: hexID(7), ID: "abc", Kind: SpanSearch, Start: 1, End: 1}}},
		"zero id":        {Schema: TraceSchema, Spans: []Span{{Seq: 1, Trace: hexID(7), ID: strings.Repeat("0", 16), Kind: SpanSearch, Start: 1, End: 1}}},
		"upper hex":      {Schema: TraceSchema, Spans: []Span{{Seq: 1, Trace: hexID(7), ID: "00000000000000AB", Kind: SpanSearch, Start: 1, End: 1}}},
		"bad parent":     {Schema: TraceSchema, Spans: []Span{{Seq: 1, Trace: hexID(7), ID: hexID(8), Parent: "zz", Kind: SpanSearch, Start: 1, End: 1}}},
		"self parent":    {Schema: TraceSchema, Spans: []Span{{Seq: 1, Trace: hexID(7), ID: hexID(8), Parent: hexID(8), Kind: SpanSearch, Start: 1, End: 1}}},
		"negative start": {Schema: TraceSchema, Spans: []Span{{Seq: 1, Trace: hexID(7), ID: hexID(8), Kind: SpanSearch, Start: -1, End: 1}}},
		"end < start":    {Schema: TraceSchema, Spans: []Span{{Seq: 1, Trace: hexID(7), ID: hexID(8), Kind: SpanSearch, Start: 2, End: 1}}},
	}
	for name, d := range cases {
		if err := d.Validate(); err == nil {
			t.Errorf("%s: invalid doc accepted", name)
		}
	}
	good := TraceDoc{Schema: TraceSchema, Spans: []Span{ok,
		{Seq: 2, Trace: hexID(7), ID: hexID(9), Parent: hexID(8), Kind: SpanCapGrant, Node: "node-001", Start: 2, End: 2, Value: 90}}}
	if err := good.Validate(); err != nil {
		t.Errorf("valid doc rejected: %v", err)
	}
}

func TestTraceDocRoundTrip(t *testing.T) {
	tr := NewTracer(9, 16)
	root := tr.Append(Span{Kind: SpanCoordEpoch, Start: 5, End: 5, Epoch: 1}, SpanRef{})
	tr.Append(Span{Kind: SpanCapGrant, Node: "node-000", Start: 5, End: 5, Epoch: 1, Value: 104}, root)
	data, err := jsonio.Marshal(tr.Doc())
	if err != nil {
		t.Fatal(err)
	}
	var back TraceDoc
	if err := jsonio.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Spans) != 2 || back.Spans[1].Parent != back.Spans[0].ID {
		t.Fatalf("round trip lost the parent link: %+v", back.Spans)
	}
}

// TestDeriveIDMatchesStdlibFNV pins the inlined allocation-free FNV-1a
// in deriveID (and the manual hex in hexID) to the hash/fnv +
// fmt.Sprintf formulation it replaced: derived span ids are part of
// the byte-identity contract, so the inlining must be bit-exact.
func TestDeriveIDMatchesStdlibFNV(t *testing.T) {
	ref := func(seed int64, kind, node string, start float64, ordinal uint64, salt byte) uint64 {
		h := fnv.New64a()
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], uint64(seed))
		h.Write(b[:])
		h.Write([]byte(kind))
		h.Write([]byte{0, salt})
		h.Write([]byte(node))
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(start))
		h.Write(b[:])
		binary.LittleEndian.PutUint64(b[:], ordinal)
		h.Write(b[:])
		v := h.Sum64()
		if v == 0 {
			v = 1
		}
		return v
	}
	cases := []struct {
		seed    int64
		kind    string
		node    string
		start   float64
		ordinal uint64
		salt    byte
	}{
		{0, "", "", 0, 0, 0},
		{7, SpanSearch, "node-003", 42.5, 3, 0x5},
		{7, SpanSearch, "node-003", 42.5, 3, 0xA},
		{-1, SpanCoordEpoch, "", 1e9, 1 << 63, 0x5},
		{20260806, SpanPlacementSolve, "node-011", 300, 17, 0xA},
	}
	for _, c := range cases {
		got := deriveID(c.seed, c.kind, c.node, c.start, c.ordinal, c.salt)
		want := ref(c.seed, c.kind, c.node, c.start, c.ordinal, c.salt)
		if got != want {
			t.Errorf("deriveID(%+v) = %x, want %x", c, got, want)
		}
		if h, w := hexID(got), fmt.Sprintf("%016x", got); h != w {
			t.Errorf("hexID(%x) = %q, want %q", got, h, w)
		}
	}
}

// TestTracerDrainTo pins span draining: derived ids survive the move,
// the destination re-stamps sequence numbers, and quiet drains are
// allocation-free (the serial merge calls this every interval).
func TestTracerDrainTo(t *testing.T) {
	src := NewTracer(7, 8)
	dst := NewTracer(7, 16)
	ref := src.Append(Span{Kind: SpanCoordEpoch, Start: 10, End: 10, Epoch: 1}, SpanRef{})
	src.Append(Span{Kind: SpanCapGrant, Node: "node-000", Start: 10, End: 10}, ref)
	cur := src.DrainTo(dst, 0)
	if cur != 2 || dst.LastSeq() != 2 {
		t.Fatalf("drain: cursor %d dst seq %d, want 2/2", cur, dst.LastSeq())
	}
	got := dst.Since(0)
	if len(got) != 2 || got[1].Parent != got[0].ID || got[0].ID != hexID(ref.ID) {
		t.Fatalf("drained spans lost ids or parent links: %+v", got)
	}
	if n := testing.AllocsPerRun(100, func() { src.DrainTo(dst, cur) }); n != 0 {
		t.Fatalf("quiet DrainTo allocates %.0f objects per call, want 0", n)
	}
	var nt *Tracer
	if c := nt.DrainTo(dst, 5); c != 5 {
		t.Fatalf("nil DrainTo cursor = %d, want 5", c)
	}
}
