package main

import (
	"reflect"
	"testing"
)

// The workload seed fixes every input: the same seed reproduces inputs
// and simulated outputs, another seed gives other inputs, so a gain can
// be re-checked on a held-out seed.
func TestSeedDiscipline(t *testing.T) {
	if derive(1, 0) != derive(1, 0) || derive(1, 0) == derive(2, 0) || derive(1, 0) == derive(1, 1) {
		t.Fatal("derived seeds are not a pure, distinct function of (seed, stream)")
	}
	t.Run(wCtl, func(t *testing.T) {
		a, b, c := reports(1, 5000), reports(1, 5000), reports(2, 5000)
		if !reflect.DeepEqual(a, b) {
			t.Error("same seed gave different report streams")
		}
		if reflect.DeepEqual(a, c) {
			t.Error("different seeds gave the same report stream")
		}
		// The stream must exercise donors, requesters and lease expiry.
		var donors, requesters int
		seen := map[string]int{}
		for _, r := range a {
			switch {
			case r.Slack > 0.2:
				donors++
			case r.Slack < 0.1:
				requesters++
			}
			seen[r.NodeID]++
		}
		if donors == 0 || requesters == 0 {
			t.Errorf("stream has %d donors and %d requesters, want both", donors, requesters)
		}
		if len(a) >= 4*ctlNodes && len(seen) != ctlNodes {
			t.Errorf("stream reached %d nodes, want %d", len(seen), ctlNodes)
		}
		skipped := 0
		for _, n := range seen {
			if n < len(a)/ctlNodes {
				skipped++
			}
		}
		if skipped == 0 {
			t.Error("no node ever went dark, so no lease can expire")
		}
	})
	for _, w := range []struct {
		name string
		iter func(int64, bool) (iterOut, error)
	}{{wFleet, fleetDayIter}, {wFleet10, fleet10kIter}} {
		t.Run(w.name, func(t *testing.T) {
			sum := func(seed int64) string {
				out, err := w.iter(derive(seed, 0), false)
				if err != nil {
					t.Fatal(err)
				}
				return out.summary
			}
			a, b, c := sum(1), sum(1), sum(2)
			if a != b {
				t.Error("same seed gave different simulated summaries")
			}
			if a == c {
				t.Error("different seeds gave the same simulated summary")
			}
		})
	}
	t.Run(wNode, func(t *testing.T) {
		p1, err := trainNode(nodeTrainSeed)
		if err != nil {
			t.Fatal(err)
		}
		day := func(seed int64) string {
			out, err := nodeDay(p1, derive(seed, 0))
			if err != nil {
				t.Fatal(err)
			}
			return out.summary
		}
		a, b, c := day(1), day(1), day(2)
		if a != b {
			t.Error("same seed gave different simulated days")
		}
		if a == c {
			t.Error("different seeds gave the same simulated day")
		}
	})
}

// reports takes the first n reports of a seed's stream, without grants.
func reports(seed int64, n int) []reportSnapshot {
	s := newReportStream(seed)
	var out []reportSnapshot
	for i := 0; i < n; i++ {
		r, _, ok := s.take(n)
		if !ok {
			break
		}
		out = append(out, reportSnapshot{r.NodeID, r.Epoch, r.Slack, r.P95S, r.PowerW, r.BEThroughputUPS})
	}
	return out
}

type reportSnapshot struct {
	NodeID                  string
	Epoch                   int
	Slack, P95S, PowerW, BE float64
}
