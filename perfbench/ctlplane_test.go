package main

import (
	"path/filepath"
	"testing"
	"time"
)

// A short traced drive of both in-process stacks passes every output
// check and the seams see every report.
func TestControlPlaneDrive(t *testing.T) {
	dir := t.TempDir()
	st, err := startStack(filepath.Join(dir, "state"), false, true)
	if err != nil {
		t.Fatal(err)
	}
	run, err := driveStacks(st, dir, 7, 200*time.Millisecond, 400*time.Millisecond, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []*cpPass{run.open, run.closed} {
		if len(p.problems) > 0 || p.ok != p.attempted {
			t.Fatalf("%d of %d reports granted; problems: %v", p.ok, p.attempted, p.problems)
		}
		if p.measured == 0 {
			t.Fatal("a phase measured no reports")
		}
	}
	if len(run.open.openLat) == 0 || len(run.closed.closedRates) == 0 {
		t.Fatalf("no measurements: %d open, %d closed slices", len(run.open.openLat), len(run.closed.closedRates))
	}
	for _, sp := range []struct {
		s *cpStack
		p *cpPass
	}{{run.file, run.open}, {run.mem, run.closed}} {
		if n := len(sp.s.tstore.appends.snapshot()); n != sp.p.ok {
			t.Errorf("store saw %d appends, %d reports were applied", n, sp.p.ok)
		}
	}
	// The FileStore stack snapshots only on shutdown; the in-memory one
	// also between closed-loop slices.
	if got := len(run.file.tstore.snapshots.snapshot()); got != 1 {
		t.Errorf("FileStore stack cut %d snapshots, want 1", got)
	}
	if got, min := len(run.mem.tstore.snapshots.snapshot()), len(run.closed.closedRates)+1; got < min {
		t.Errorf("in-memory stack cut %d snapshots, want at least %d", got, min)
	}
	handled := len(run.file.handler.report.snapshot()) + len(run.mem.handler.report.snapshot())
	if int64(handled) < run.open.attempts+run.closed.attempts {
		t.Errorf("handlers timed %d reports, transports sent %d measured attempts",
			handled, run.open.attempts+run.closed.attempts)
	}
}
