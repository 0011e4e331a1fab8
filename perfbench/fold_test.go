package main

import (
	"math"
	"os"
	"strings"
	"testing"
)

func TestFoldFixture(t *testing.T) {
	f, err := os.Open("testdata/raw.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := fold(f)
	if err != nil {
		t.Fatal(err)
	}
	// 170 ms of samples: see the stacks in testdata/raw.txt.
	want := map[string]float64{
		"queueing":   50, // innermost internal frame under math.Exp
		"power":      20,
		"mlkit":      20, // the innermost of two internal frames wins
		"bench":      30, // a benchmark frame inside the simulator
		"nethttp":    20, // net/http and net stacks without internal frames
		"runtime.gc": 10,
		"other":      20, // runtime idle work and an unlisted package
	}
	sum := 0.0
	for _, l := range cpuLayers {
		v, ok := got[l]
		if !ok {
			t.Errorf("fold omits layer %s", l)
		}
		if w := want[l] / 170; math.Abs(v-w) > 1e-12 {
			t.Errorf("%s share = %v, want %v", l, v, w)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("shares sum to %v, want 1", sum)
	}
	if len(got) != len(cpuLayers) {
		t.Errorf("fold returned %d buckets, want %d", len(got), len(cpuLayers))
	}
}

func TestFoldRejectsEmptyProfile(t *testing.T) {
	raw := "PeriodType: cpu nanoseconds\nSamples:\nsamples/count cpu/nanoseconds\nLocations\nMappings\n"
	if _, err := fold(strings.NewReader(raw)); err == nil {
		t.Fatal("fold accepted a profile without samples")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := median(xs); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := quantile([]float64{0, 10}, 0.9); math.Abs(got-9) > 1e-12 {
		t.Errorf("p90 of {0,10} = %v, want 9", got)
	}
	inf := math.Inf(1)
	if got := quantile([]float64{1, 2, inf, inf}, 0.9); !math.IsInf(got, 1) {
		t.Errorf("p90 with failed requests = %v, want +Inf", got)
	}
	if got := quantile([]float64{1, 2, 3, inf}, 0.5); got != 2.5 {
		t.Errorf("p50 with one failed request = %v, want 2.5", got)
	}
}
