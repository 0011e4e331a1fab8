package core

import (
	"reflect"
	"testing"

	"sturgeon/internal/hw"
	"sturgeon/internal/power"
)

// gridOracle is a deterministic synthetic predictor: QoS feasibility and
// power are smooth monotone functions of the allocation, so the binary
// searches exercise their full range without the cost of model training.
type gridOracle struct {
	spec hw.Spec
}

func (o gridOracle) capacity(a hw.Alloc) float64 {
	return float64(a.Cores)*float64(a.Freq) + 0.35*float64(a.LLCWays)
}

func (o gridOracle) QoSOK(a hw.Alloc, qps float64) bool {
	// Peak load needs roughly the whole machine; scale linearly below.
	full := hw.Alloc{Cores: o.spec.Cores - 1, Freq: o.spec.FreqMax, LLCWays: o.spec.LLCWays - 1}
	return o.capacity(a) >= qps/20000*o.capacity(full)
}

func (o gridOracle) Throughput(a hw.Alloc) float64 {
	return o.capacity(a)
}

func (o gridOracle) PowerW(cfg hw.Config, qps float64) power.Watts {
	return power.Watts(40 + 2.2*o.capacity(cfg.LS) + 2.0*o.capacity(cfg.BE))
}

// countingOracle wraps gridOracle with query counters, so tests can
// prove a memoized answer touched no model at all.
type countingOracle struct {
	gridOracle
	calls int
}

func (c *countingOracle) QoSOK(a hw.Alloc, qps float64) bool {
	c.calls++
	return c.gridOracle.QoSOK(a, qps)
}

func (c *countingOracle) Throughput(a hw.Alloc) float64 {
	c.calls++
	return c.gridOracle.Throughput(a)
}

func (c *countingOracle) PowerW(cfg hw.Config, qps float64) power.Watts {
	c.calls++
	return c.gridOracle.PowerW(cfg, qps)
}

func TestSearchMemoHitAndInvalidation(t *testing.T) {
	spec := hw.DefaultSpec()
	pred := &countingOracle{gridOracle: gridOracle{spec}}
	s := &Searcher{Spec: spec, Pred: pred, Budget: 160}
	const qps = 30000.0

	cfg1, ok1 := s.BestConfig(qps)
	missCalls := pred.calls
	if missCalls == 0 {
		t.Fatal("first search made no predictor queries")
	}

	cfg2, ok2 := s.BestConfig(qps)
	if pred.calls != missCalls {
		t.Fatalf("memo hit queried the predictor: %d -> %d calls", missCalls, pred.calls)
	}
	if cfg2 != cfg1 || ok2 != ok1 {
		t.Fatalf("memoized answer diverged: (%v,%v) vs (%v,%v)", cfg2, ok2, cfg1, ok1)
	}

	// A budget change is a different key: the stale answer must not be
	// served even without explicit invalidation.
	s.Budget = 120
	if _, _ = s.BestConfig(qps); pred.calls == missCalls {
		t.Fatal("budget change served a stale memoized answer")
	}
	s.Budget = 160
	before := pred.calls
	if _, _ = s.BestConfig(qps); pred.calls != before {
		t.Fatal("restored budget should hit the original memo entry")
	}

	// Explicit invalidation (the in-place model refit contract).
	s.InvalidateMemo()
	if _, _ = s.BestConfig(qps); pred.calls == before {
		t.Fatal("InvalidateMemo did not force a re-search")
	}

	// Swapping the predictor value re-keys without any explicit call.
	other := &countingOracle{gridOracle: gridOracle{spec}}
	s.Pred = other
	if _, _ = s.BestConfig(qps); other.calls == 0 {
		t.Fatal("new predictor never queried after swap")
	}
}

// TestSearchMemoBounded pins the overflow reset.
func TestSearchMemoBounded(t *testing.T) {
	spec := hw.DefaultSpec()
	s := &Searcher{Spec: spec, Pred: gridOracle{spec}, Budget: 160}
	s.memo = make(map[searchKey]searchVal)
	for i := 0; i < searchMemoMax; i++ {
		s.memo[searchKey{qps: uint64(i)}] = searchVal{}
	}
	s.BestConfig(30000)
	if len(s.memo) > 1 {
		t.Fatalf("memo not reset at cap: %d entries", len(s.memo))
	}
}

// TestCandidatesIntoReuse pins that buffer reuse returns the same
// candidates as a fresh enumeration.
func TestCandidatesIntoReuse(t *testing.T) {
	spec := hw.DefaultSpec()
	s := &Searcher{Spec: spec, Pred: gridOracle{spec}, Budget: 160}
	var buf []Candidate
	for _, qps := range []float64{5000, 20000, 35000, 52000} {
		buf = s.CandidatesInto(qps, buf[:0])
		want := s.Candidates(qps)
		if len(buf) == 0 && len(want) == 0 {
			continue
		}
		if !reflect.DeepEqual(buf, want) {
			t.Fatalf("qps %v: reused buffer diverged\nreuse: %+v\nfresh: %+v", qps, buf, want)
		}
	}
}

func TestSturgeonSetBudgetPropagates(t *testing.T) {
	spec := hw.DefaultSpec()
	s := New(spec, nil, 160, Options{})
	s.searched = true
	s.SetBudget(120)
	if s.Budget != 120 || s.searcher.Budget != 120 {
		t.Fatalf("budget not propagated: controller %v searcher %v", s.Budget, s.searcher.Budget)
	}
	if s.balancer.Budget != s.searcher.guardedBudget() {
		t.Fatalf("balancer budget %v != guarded %v", s.balancer.Budget, s.searcher.guardedBudget())
	}
	if s.searched {
		t.Fatal("SetBudget must force a fresh search")
	}
}

func BenchmarkSearcherBestConfig(b *testing.B) {
	spec := hw.DefaultSpec()
	s := &Searcher{Spec: spec, Pred: gridOracle{spec}, Budget: 160}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		// A fresh load level every iteration: measures the full search,
		// not the memo.
		s.BestConfig(10000 + float64(i%40000))
	}
}

func BenchmarkSearcherBestConfigMemoHit(b *testing.B) {
	spec := hw.DefaultSpec()
	s := &Searcher{Spec: spec, Pred: gridOracle{spec}, Budget: 160}
	s.BestConfig(30000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.BestConfig(30000)
	}
}
