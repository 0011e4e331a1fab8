package obs

import (
	"math"
	"testing"

	"sturgeon/internal/jsonio"
)

func TestTSeriesNilSafety(t *testing.T) {
	var s *TSeries
	s.Observe(1, 2) // must not panic
	var r *Recorder
	if r.Series("x") != nil {
		t.Fatal("nil recorder must hand back a nil series")
	}
	if d := r.Doc(); d == nil || d.Validate() != nil {
		t.Fatal("nil recorder must yield a valid empty doc")
	}
}

func TestTSeriesRollups(t *testing.T) {
	rec := NewRecorder(0)
	s := rec.Series("fleet_power_w")
	// Per-second samples over 25 simulated seconds: the 10 s tier must
	// seal (0,10] and (10,20] and leave (20,30] open; the 60 s tier keeps
	// everything in one open bin.
	for i := 1; i <= 25; i++ {
		s.Observe(float64(i), float64(i))
	}
	d := rec.Doc()
	if err := d.Validate(); err != nil {
		t.Fatalf("doc invalid: %v", err)
	}
	sd := d.Series[0]
	if sd.Name != "fleet_power_w" || len(sd.Raw) != 25 {
		t.Fatalf("raw tail wrong: %s/%d", sd.Name, len(sd.Raw))
	}
	if len(sd.Rollups) != 2 || sd.Rollups[0].ResS != 10 || sd.Rollups[1].ResS != 60 {
		t.Fatalf("rollup tiers wrong: %+v", sd.Rollups)
	}
	tier10 := sd.Rollups[0]
	if len(tier10.Bins) != 3 {
		t.Fatalf("10s tier has %d bins, want 3", len(tier10.Bins))
	}
	// (0,10]: samples 1..10 — the boundary sample t=10 belongs to the bin
	// ending at 10, not the one starting there.
	b := tier10.Bins[0]
	if b.T0 != 0 || b.Count != 10 || b.Min != 1 || b.Max != 10 || b.Sum != 55 {
		t.Fatalf("(0,10] bin wrong: %+v", b)
	}
	b = tier10.Bins[1]
	if b.T0 != 10 || b.Count != 10 || b.Min != 11 || b.Max != 20 {
		t.Fatalf("(10,20] bin wrong: %+v", b)
	}
	b = tier10.Bins[2]
	if b.T0 != 20 || b.Count != 5 || b.Max != 25 {
		t.Fatalf("open (20,30] bin wrong: %+v", b)
	}
	tier60 := sd.Rollups[1]
	if len(tier60.Bins) != 1 || tier60.Bins[0].Count != 25 {
		t.Fatalf("60s tier wrong: %+v", tier60.Bins)
	}
}

func TestTSeriesResetOnRewind(t *testing.T) {
	rec := NewRecorder(0)
	s := rec.Series("fleet_qos")
	for i := 1; i <= 40; i++ {
		s.Observe(float64(i), 0.9)
	}
	// A second run re-feeds the same sink from t=1: the series must
	// restart so the exported timeline describes the last run only.
	for i := 1; i <= 12; i++ {
		s.Observe(float64(i), 0.5)
	}
	d := rec.Doc()
	if err := d.Validate(); err != nil {
		t.Fatalf("doc invalid after rewind: %v", err)
	}
	sd := d.Series[0]
	if len(sd.Raw) != 12 || sd.Raw[0].T != 1 || sd.Raw[0].V != 0.5 {
		t.Fatalf("rewind did not reset raw ring: %d samples, first %+v", len(sd.Raw), sd.Raw[0])
	}
	for _, tier := range sd.Rollups {
		for _, b := range tier.Bins {
			if b.Min != 0.5 || b.Max != 0.5 {
				t.Fatalf("rollup %ds kept pre-rewind samples: %+v", tier.ResS, b)
			}
		}
	}
}

func TestTSeriesRawRingWraps(t *testing.T) {
	rec := NewRecorder(4)
	s := rec.Series("x")
	for i := 1; i <= 7; i++ {
		s.Observe(float64(i), float64(i))
	}
	d := rec.Doc()
	if err := d.Validate(); err != nil {
		t.Fatalf("doc invalid: %v", err)
	}
	sd := d.Series[0]
	if sd.Dropped != 3 || len(sd.Raw) != 4 || sd.Raw[0].T != 4 {
		t.Fatalf("raw ring wrap wrong: dropped %d raw %+v", sd.Dropped, sd.Raw)
	}
	// Rollups are unaffected by the raw ring: all 7 samples counted.
	if n := sd.Rollups[0].Bins[0].Count; n != 7 {
		t.Fatalf("rollup lost samples to the raw ring: %d", n)
	}
}

// TestTSeriesRollupRingWraps overfills the 10 s tier's sealed-bin ring:
// per-second samples over 15995 s seal 1599 ten-second bins, so the
// ring drops the oldest 63 and exports the newest 1536 oldest-first,
// followed by the open (15990,16000] bin holding 5 samples.
func TestTSeriesRollupRingWraps(t *testing.T) {
	rec := NewRecorder(0)
	s := rec.Series("x")
	const n = (DefaultBinCap+63)*10 + 5
	for i := 1; i <= n; i++ {
		s.Observe(float64(i), float64(i%7))
	}
	d := rec.Doc()
	if err := d.Validate(); err != nil {
		t.Fatalf("doc invalid: %v", err)
	}
	tier := d.Series[0].Rollups[0]
	if tier.ResS != 10 || tier.Dropped != 63 || len(tier.Bins) != DefaultBinCap+1 {
		t.Fatalf("10s tier: res %d dropped %d bins %d, want 10/63/%d",
			tier.ResS, tier.Dropped, len(tier.Bins), DefaultBinCap+1)
	}
	for i, b := range tier.Bins {
		if want := float64(630 + 10*i); b.T0 != want {
			t.Fatalf("bin %d t0 %v, want %v (oldest-first, strictly increasing)", i, b.T0, want)
		}
		if i < DefaultBinCap && b.Count != 10 {
			t.Fatalf("sealed bin %d has count %d, want 10", i, b.Count)
		}
	}
	if open := tier.Bins[DefaultBinCap]; open.T0 != 15990 || open.Count != 5 {
		t.Fatalf("open bin not last: %+v", open)
	}
	// The 60 s tier seals 266 bins, well inside its ring.
	if tier60 := d.Series[0].Rollups[1]; tier60.Dropped != 0 || len(tier60.Bins) != 267 {
		t.Fatalf("60s tier: dropped %d bins %d, want 0/267", tier60.Dropped, len(tier60.Bins))
	}
}

func TestTSeriesDropsNonFinite(t *testing.T) {
	rec := NewRecorder(0)
	s := rec.Series("x")
	s.Observe(1, 1)
	s.Observe(math.NaN(), 2)
	s.Observe(2, math.Inf(1))
	s.Observe(math.Inf(-1), 3)
	s.Observe(2, 2)
	d := rec.Doc()
	if err := d.Validate(); err != nil {
		t.Fatalf("doc invalid: %v", err)
	}
	if len(d.Series[0].Raw) != 2 {
		t.Fatalf("non-finite samples not dropped: %+v", d.Series[0].Raw)
	}
}

func TestTimelineDocValidateRejects(t *testing.T) {
	series := func(mut func(*SeriesDoc)) TimelineDoc {
		sd := SeriesDoc{Name: "x", Raw: []Point{{T: 1, V: 1}},
			Rollups: []BinsDoc{{ResS: 10, Bins: []Bin{{T0: 0, Min: 1, Max: 1, Sum: 1, Count: 1}}}}}
		mut(&sd)
		return TimelineDoc{Schema: TimelineSchema, Series: []SeriesDoc{sd}}
	}
	cases := map[string]TimelineDoc{
		"bad schema":      {Schema: "nope"},
		"empty name":      series(func(s *SeriesDoc) { s.Name = "" }),
		"neg dropped":     series(func(s *SeriesDoc) { s.Dropped = -1 }),
		"nan point":       series(func(s *SeriesDoc) { s.Raw[0].V = math.NaN() }),
		"time repeat":     series(func(s *SeriesDoc) { s.Raw = []Point{{T: 1, V: 1}, {T: 1, V: 2}} }),
		"misaligned t0":   series(func(s *SeriesDoc) { s.Rollups[0].Bins[0].T0 = 3 }),
		"zero count":      series(func(s *SeriesDoc) { s.Rollups[0].Bins[0].Count = 0 }),
		"min > max":       series(func(s *SeriesDoc) { s.Rollups[0].Bins[0].Min = 2 }),
		"mean off range":  series(func(s *SeriesDoc) { s.Rollups[0].Bins[0].Sum = 99 }),
		"res not rising":  series(func(s *SeriesDoc) { s.Rollups = append(s.Rollups, BinsDoc{ResS: 10}) }),
		"unsorted series": {Schema: TimelineSchema, Series: []SeriesDoc{{Name: "b"}, {Name: "a"}}},
		"dup series":      {Schema: TimelineSchema, Series: []SeriesDoc{{Name: "a"}, {Name: "a"}}},
	}
	for name, d := range cases {
		if err := d.Validate(); err == nil {
			t.Errorf("%s: invalid doc accepted", name)
		}
	}
	good := series(func(s *SeriesDoc) {})
	if err := good.Validate(); err != nil {
		t.Errorf("valid doc rejected: %v", err)
	}
}

func TestTimelineDocRoundTrip(t *testing.T) {
	rec := NewRecorder(0)
	rec.Series("b").Observe(1, 2)
	rec.Series("a").Observe(1, 3)
	data, err := jsonio.Marshal(rec.Doc())
	if err != nil {
		t.Fatal(err)
	}
	var back TimelineDoc
	if err := jsonio.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Series) != 2 || back.Series[0].Name != "a" || back.Series[1].Name != "b" {
		t.Fatalf("series not sorted by name: %+v", back.Series)
	}
}
