package main

import (
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"sturgeon/internal/control"
	"sturgeon/internal/core"
	"sturgeon/internal/durable"
	"sturgeon/internal/hw"
	"sturgeon/internal/obs"
	"sturgeon/internal/placement"
	"sturgeon/internal/power"
)

// timedCtrl wraps a control.Controller at the seam the simulator hands
// out (Cluster.Ctrls, sim.Runner.Ctrl). It times every Decide and, for a
// Sturgeon controller, records the process CPU time of the decisions
// that ran a predictor search. Between start and finish it also records
// the process CPU time between the starts of consecutive Decide calls:
// one simulated fleet second, all nodes and the serial merge, when it
// wraps node 0 of a fleet. The wrapper forwards the optional interfaces the
// cluster type-asserts (CapSetter, Steady, Instrumentable), so wrapping
// never changes what the program does.
//
// A wrapper is stepped by one goroutine at a time, like the node it
// serves; read its fields after the run returns.
type timedCtrl struct {
	inner control.Controller
	st    *core.Sturgeon // non-nil when inner is the paper's controller

	calls   int64
	busy    time.Duration // wall time inside Decide
	search  []float64     // CPU ms per Decide that ran a search
	ticking bool          // between start and finish
	last    time.Duration // CPU clock at the previous tick
	gaps    []float64     // CPU ms between consecutive Decide starts
}

func wrapCtrl(c control.Controller) *timedCtrl {
	st, _ := c.(*core.Sturgeon)
	return &timedCtrl{inner: c, st: st}
}

// start marks the beginning of a run for the tick gaps.
func (w *timedCtrl) start() { w.last, w.ticking = cpuTime(), true }

// finish closes the last tick gap at the end of a run.
func (w *timedCtrl) finish() {
	if w.ticking {
		w.gaps = append(w.gaps, ms(cpuTime()-w.last))
		w.ticking = false
	}
}

func (w *timedCtrl) Name() string { return w.inner.Name() }

func (w *timedCtrl) Decide(ob control.Observation) hw.Config {
	if w.ticking {
		now := cpuTime()
		w.gaps = append(w.gaps, ms(now-w.last))
		w.last = now
	}
	searches := 0
	var c0 time.Duration
	if w.st != nil {
		searches = w.st.Searches
		c0 = cpuTime()
	}
	t0 := time.Now()
	cfg := w.inner.Decide(ob)
	w.busy += time.Since(t0)
	w.calls++
	if w.st != nil && w.st.Searches != searches {
		w.search = append(w.search, ms(cpuTime()-c0))
	}
	return cfg
}

func (w *timedCtrl) SetBudget(b power.Watts) {
	if cs, ok := w.inner.(control.CapSetter); ok {
		cs.SetBudget(b)
	}
}

func (w *timedCtrl) SteadyKey() (any, bool) {
	if s, ok := w.inner.(control.Steady); ok {
		return s.SteadyKey()
	}
	return nil, false
}

func (w *timedCtrl) SetObs(s *obs.Sink) {
	if in, ok := w.inner.(obs.Instrumentable); ok {
		in.SetObs(s)
	}
}

// timedModel wraps a placement.PairModel, counting and timing calls.
// The placement solver and planner call it from the serial merge only.
type timedModel struct {
	inner placement.PairModel
	calls int64
	busy  time.Duration
}

func (m *timedModel) QoSOK(a hw.Alloc, qps float64) bool {
	t0 := time.Now()
	ok := m.inner.QoSOK(a, qps)
	m.calls++
	m.busy += time.Since(t0)
	return ok
}

func (m *timedModel) Throughput(a hw.Alloc) float64 {
	t0 := time.Now()
	v := m.inner.Throughput(a)
	m.calls++
	m.busy += time.Since(t0)
	return v
}

func (m *timedModel) PowerW(cfg hw.Config, qps float64) power.Watts {
	t0 := time.Now()
	v := m.inner.PowerW(cfg, qps)
	m.calls++
	m.busy += time.Since(t0)
	return v
}

// latencies is a mutex-guarded latency sample in milliseconds.
type latencies struct {
	mu sync.Mutex
	xs []float64
}

func (l *latencies) add(d time.Duration) {
	l.mu.Lock()
	l.xs = append(l.xs, ms(d))
	l.mu.Unlock()
}

func (l *latencies) snapshot() []float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]float64(nil), l.xs...)
}

// timedStore wraps the durable.Store behind coordinator.Persist. Persist
// calls it under the server's serving mutex.
type timedStore struct {
	inner     durable.Store
	appends   latencies
	snapshots latencies
}

func (s *timedStore) SaveSnapshot(v interface{}) error {
	t0 := time.Now()
	err := s.inner.SaveSnapshot(v)
	s.snapshots.add(time.Since(t0))
	return err
}

func (s *timedStore) LoadSnapshot(v interface{}) error { return s.inner.LoadSnapshot(v) }

func (s *timedStore) Append(rec []byte) error {
	t0 := time.Now()
	err := s.inner.Append(rec)
	s.appends.add(time.Since(t0))
	return err
}

func (s *timedStore) Records() ([][]byte, error) { return s.inner.Records() }

// timedHandler is middleware around Server.Handler(): it times every
// /v1/report request server-side, serving-mutex wait included.
type timedHandler struct {
	inner  http.Handler
	report latencies
}

func (h *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/v1/report" {
		h.inner.ServeHTTP(w, r)
		return
	}
	t0 := time.Now()
	h.inner.ServeHTTP(w, r)
	h.report.add(time.Since(t0))
}

// countingTransport is the http.RoundTripper on coordinator.Client.HTTP:
// it counts /v1/report attempts (retries included).
type countingTransport struct {
	inner    http.RoundTripper
	attempts atomic.Int64
}

func (t *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.URL.Path == "/v1/report" {
		t.attempts.Add(1)
	}
	return t.inner.RoundTrip(r)
}
