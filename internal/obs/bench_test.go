package obs

import "testing"

// stagingCap matches the cluster's per-node staging rings.
const stagingCap = 64

// BenchmarkJournalAppendDrain measures one interval of the cluster's
// serial merge for a node that decided something: an event appended to
// the node's staging journal, then drained into the fleet journal. The
// whole path is allocation-free.
func BenchmarkJournalAppendDrain(b *testing.B) {
	staging, fleet := NewJournal(stagingCap), NewJournal(0)
	ev := Event{Node: "node-003", Type: EventHarvest, Resource: "cores", Amount: 1}
	var cur int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.T = float64(i)
		staging.Append(ev)
		cur = staging.DrainTo(fleet, cur)
	}
}

// BenchmarkTracerAppendDrain is the span twin: a span appended to the
// node's staging tracer (deriving its ids), then drained into the fleet
// tracer. allocs/op counts the two derived id strings; the drain itself
// is reported separately as drain-allocs/op and must stay 0.
func BenchmarkTracerAppendDrain(b *testing.B) {
	staging, fleet := NewTracer(7, stagingCap), NewTracer(7, 0)
	sp := Span{Kind: SpanGovernorAdjust, Node: "node-003", Reason: "be_down"}
	staging.Append(sp, SpanRef{})
	// Re-draining from one before the staging head moves exactly the
	// newest span, isolating the drain from id derivation.
	drain := testing.AllocsPerRun(100, func() { staging.DrainTo(fleet, staging.LastSeq()-1) })
	cur := staging.LastSeq()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp.Start, sp.End = float64(i), float64(i)
		staging.Append(sp, SpanRef{})
		cur = staging.DrainTo(fleet, cur)
	}
	b.ReportMetric(drain, "drain-allocs/op")
}
