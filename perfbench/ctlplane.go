package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"sturgeon/internal/coordinator"
	"sturgeon/internal/durable"
)

// control-plane parameters: an in-process sturgeond stack (leases on,
// durable FileStore state) driven over loopback HTTP.
const (
	ctlNodes       = 1024
	ctlEvenCapW    = 100.0
	ctlMinCapW     = 60.0
	ctlMaxCapW     = 140.0
	ctlLeaseTTL    = 2
	ctlClients     = 2      // worker goroutines and HTTP connections
	ctlOpenRate    = 1500.0 // offered open-loop reports per second
	ctlSetupReps   = 21
	ctlDarkPct     = 5 // % of node-blocks that go silent for three epochs
	ctlDarkBlock   = 4 // epochs per dark-window block
	ctlHTTPTimeout = 2 * time.Second
	ctlSlice       = 500 * time.Millisecond // closed-loop rate sample
	// ctlTailQ is the open-loop tail reported: p95, because on a shared
	// disk an fsync now and then stalls for 10–200 ms, and whether one
	// lands in a run decides if its p99 reads 1.5 or 7 ms.
	ctlTailQ = 0.95
)

func ctlOptions() coordinator.Options {
	return coordinator.Options{
		BudgetW:     ctlEvenCapW * ctlNodes,
		MinCapW:     ctlMinCapW,
		MaxCapW:     ctlMaxCapW,
		FleetSize:   ctlNodes,
		LeaseEpochs: ctlLeaseTTL,
	}
}

// reportStream is the seeded report sequence of the simulated fleet:
// epoch by epoch, every node in a seeded order, minus the node-epochs a
// node spends dark. Each node's demand follows its own phase of a
// 16-epoch swell, so some nodes donate while others request. Reports
// carry the cap the node was last granted.
type reportStream struct {
	seed    int64
	order   []int
	phase   []float64
	mu      sync.Mutex
	caps    []float64
	epoch   int
	slot    int
	emitted int
}

func newReportStream(seed int64) *reportStream {
	s := &reportStream{seed: seed, order: make([]int, ctlNodes),
		phase: make([]float64, ctlNodes), caps: make([]float64, ctlNodes)}
	for i := range s.order {
		s.order[i] = i
		s.phase[i] = unit(derive(seed, 1<<40|uint64(i)))
		s.caps[i] = ctlEvenCapW
	}
	for i := len(s.order) - 1; i > 0; i-- { // seeded Fisher–Yates
		j := int(uint64(derive(seed, 2<<40|uint64(i))) % uint64(i+1))
		s.order[i], s.order[j] = s.order[j], s.order[i]
	}
	return s
}

// unit maps a derived seed to [0, 1).
func unit(x int64) float64 { return float64(uint64(x)>>10) / float64(1<<53) }

// dark reports whether a node skips an epoch: within each block of
// ctlDarkBlock epochs a seeded few nodes miss all but the first, long
// enough for their two-epoch lease to expire.
func (s *reportStream) dark(node, epoch int) bool {
	if epoch%ctlDarkBlock == 0 {
		return false
	}
	h := uint64(derive(s.seed, 3<<40|uint64(node)<<20|uint64(epoch/ctlDarkBlock)))
	return h%100 < ctlDarkPct
}

// take returns the next report and its sequence number, or false once
// limit reports have been emitted.
func (s *reportStream) take(limit int) (coordinator.NodeReport, int, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.emitted >= limit {
		return coordinator.NodeReport{}, 0, false
	}
	for {
		node := s.order[s.slot]
		epoch := s.epoch
		if s.slot++; s.slot == ctlNodes {
			s.slot, s.epoch = 0, s.epoch+1
		}
		if s.dark(node, epoch) {
			continue
		}
		demand := 0.5 + 0.45*math.Sin(2*math.Pi*(float64(epoch)/16+s.phase[node]))
		noise := 0.04*unit(derive(s.seed, 4<<40|uint64(node)<<24|uint64(epoch))) - 0.02
		slack := 0.35 - 0.4*demand + noise
		capW := s.caps[node]
		seq := s.emitted
		s.emitted++
		return coordinator.NodeReport{
			Schema:          coordinator.Schema,
			NodeID:          fmt.Sprintf("node-%04d", node),
			Epoch:           epoch,
			Slack:           slack,
			P95S:            0.010 * (1 - slack),
			PowerW:          capW * (0.80 + 0.19*demand),
			CapW:            capW,
			BEThroughputUPS: 40*(1-demand) + 2,
			Healthy:         true,
		}, seq, true
	}
}

// count is the number of reports emitted so far.
func (s *reportStream) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.emitted
}

// granted records a node's new cap for its next report.
func (s *reportStream) granted(nodeID string, capW float64) {
	var node int
	if _, err := fmt.Sscanf(nodeID, "node-%d", &node); err != nil || node < 0 || node >= ctlNodes {
		return
	}
	s.mu.Lock()
	s.caps[node] = capW
	s.mu.Unlock()
}

// cpStack is one in-process sturgeond: state store, recovery ladder,
// write-ahead persistence, HTTP server on loopback.
type cpStack struct {
	dir     string
	store   *durable.FileStore // nil on an in-memory stack
	srv     *coordinator.Server
	hs      *http.Server
	served  chan error
	base    string
	tstore  *timedStore   // traced only
	handler *timedHandler // traced only
}

// startStack stands up a stack on a FileStore state directory, as
// sturgeond -state runs, or with mem on a durable.MemStore.
func startStack(dir string, mem, traced bool) (*cpStack, error) {
	s := &cpStack{dir: dir, served: make(chan error, 1)}
	var ds durable.Store = durable.NewMemStore()
	if !mem {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		store, err := durable.Open(dir)
		if err != nil {
			return nil, err
		}
		s.store, ds = store, store
	}
	c, _, err := coordinator.Recover(ds, ctlOptions(), nil)
	if err != nil {
		s.closeStore()
		return nil, err
	}
	srv := coordinator.NewServer(c)
	var h http.Handler = srv.Handler()
	if traced {
		s.tstore = &timedStore{inner: ds}
		s.handler = &timedHandler{inner: h}
		ds, h = s.tstore, s.handler
	}
	// Like sturgeond with its default 30 s snapshot ticker, which a run
	// this short never reaches: every report is write-ahead logged, and
	// the one snapshot is the final one cut on shutdown.
	srv.SetPersist(&coordinator.Persist{Store: ds})
	s.srv = srv
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.closeStore()
		return nil, err
	}
	s.hs = coordinator.NewHTTPServer(ln.Addr().String(), h)
	s.base = "http://" + ln.Addr().String()
	go func() { s.served <- s.hs.Serve(ln) }()
	req, err := http.NewRequest(http.MethodGet, s.base+"/healthz", nil)
	var resp *http.Response
	if err == nil {
		req.Close = true
		resp, err = http.DefaultClient.Do(req)
	}
	if err == nil {
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz: %s", resp.Status)
		}
	}
	if err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// closeStore closes the FileStore, if any, and drops the state.
func (s *cpStack) closeStore() error {
	var err error
	if s.store != nil {
		err = s.store.Close()
	}
	if rerr := os.RemoveAll(s.dir); err == nil {
		err = rerr
	}
	return err
}

// close stops the server, waits for it to exit, cuts the final
// snapshot as sturgeond does on SIGTERM, and drops the state.
func (s *cpStack) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if serr := s.srv.Snapshot(); err == nil {
		err = serr
	}
	if cerr := s.closeStore(); err == nil {
		err = cerr
	}
	return err
}

// cpPass is one measured drive of a stack: open loop, then closed loop.
type cpPass struct {
	openLat, lateness, calls []float64 // ms
	closedRates              []float64 // reports per CPU second, per closed-loop slice
	closedReports            int
	closedWall, closedCPU    time.Duration
	measured                 int // reports in the timed phases
	mallocs                  uint64
	attempted, ok            int
	problems                 []string
	status                   *coordinator.FleetStatus
	attempts                 int64
	gcFrac                   float64
}

// loadGen sends reports from ctlClients workers, each with its own
// coordinator.Client over one shared connection pool.
type loadGen struct {
	stream  *reportStream
	clients []*coordinator.Client
	mu      sync.Mutex
	pass    *cpPass
}

func newLoadGen(stream *reportStream, base string, seed int64, rt http.RoundTripper) *loadGen {
	d := &loadGen{stream: stream}
	for w := 0; w < ctlClients; w++ {
		cl := coordinator.NewClient(base, derive(seed, 7000+uint64(w)))
		cl.HTTP = &http.Client{Timeout: ctlHTTPTimeout, Transport: rt}
		d.clients = append(d.clients, cl)
	}
	return d
}

// send submits one report and checks the grant; it returns the
// client-side call duration and whether the report succeeded.
func (d *loadGen) send(w int, r coordinator.NodeReport) (time.Duration, bool) {
	t0 := time.Now()
	g, err := d.clients[w].Report(context.Background(), r)
	dur := time.Since(t0)
	if err == nil {
		switch {
		case g.NodeID != r.NodeID:
			err = fmt.Errorf("grant for %s answered report of %s", g.NodeID, r.NodeID)
		case g.CapW < 0 || g.CapW > ctlMaxCapW:
			err = fmt.Errorf("grant cap %v outside [0, %v]", g.CapW, ctlMaxCapW)
		case g.Token <= 0 || g.LeaseEpochs != ctlLeaseTTL:
			err = fmt.Errorf("grant for %s is not a lease (token %d, ttl %d)", g.NodeID, g.Token, g.LeaseEpochs)
		}
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.pass.attempted++
	d.pass.calls = append(d.pass.calls, ms(dur))
	if err != nil {
		if len(d.pass.problems) < 8 {
			d.pass.problems = append(d.pass.problems, fmt.Sprintf("report %s/%d: %v", r.NodeID, r.Epoch, err))
		}
		return dur, false
	}
	d.pass.ok++
	d.stream.granted(g.NodeID, g.CapW)
	return dur, true
}

// closedLoop sends back to back until n reports (n > 0) or the deadline.
func (d *loadGen) closedLoop(n int, dur time.Duration) (int, time.Duration) {
	limit := math.MaxInt
	if n > 0 {
		limit = d.stream.count() + n
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	sent := 0
	t0 := time.Now()
	for w := 0; w < ctlClients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for dur <= 0 || time.Since(t0) < dur {
				r, _, ok := d.stream.take(limit)
				if !ok {
					return
				}
				d.send(w, r)
				mu.Lock()
				sent++
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	return sent, time.Since(t0)
}

// openLoop offers ctlOpenRate reports/s for dur. Each report's latency
// runs from its scheduled send time, so a stall delays every report
// queued behind it; a failed report counts as +Inf.
func (d *loadGen) openLoop(dur time.Duration) (lat, late []float64) {
	n := int(ctlOpenRate * dur.Seconds())
	first := d.stream.count()
	limit := first + n
	var wg sync.WaitGroup
	var mu sync.Mutex
	t0 := time.Now()
	for w := 0; w < ctlClients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				r, seq, ok := d.stream.take(limit)
				if !ok {
					return
				}
				due := t0.Add(time.Duration(float64(seq-first) / ctlOpenRate * float64(time.Second)))
				time.Sleep(time.Until(due))
				start := time.Now()
				_, ok = d.send(w, r)
				l := ms(time.Since(due))
				if !ok {
					l = math.Inf(1)
				}
				mu.Lock()
				lat = append(lat, l)
				late = append(late, ms(start.Sub(due)))
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	return lat, late
}

// drive runs warm-up, open loop and closed loop against one stack and
// checks the final fleet status.
func drive(st *cpStack, stream *reportStream, seed int64, open, closed time.Duration, traced bool) (*cpPass, error) {
	tr := &http.Transport{MaxIdleConnsPerHost: ctlClients, MaxConnsPerHost: ctlClients}
	defer tr.CloseIdleConnections()
	var rt http.RoundTripper = tr
	var counter *countingTransport
	if traced {
		counter = &countingTransport{inner: tr}
		rt = counter
	}
	p := &cpPass{}
	d := newLoadGen(stream, st.base, seed, rt)
	d.pass = p

	// Warm-up: one full epoch adopts every node and opens the connections.
	d.closedLoop(ctlNodes, 0)
	warm := p.attempted
	var attempts0 int64
	if counter != nil {
		attempts0 = counter.attempts.Load()
	}

	runtime.GC()
	gc0, tot0 := gcCPU()
	m0 := mallocs()
	p.openLat, p.lateness = d.openLoop(open)
	for t0 := time.Now(); time.Since(t0) < closed; {
		c0 := cpuTime()
		n, wall := d.closedLoop(0, ctlSlice)
		cpu := cpuTime() - c0
		p.closedRates = append(p.closedRates, float64(n)/cpu.Seconds())
		p.closedReports += n
		p.closedWall += wall
		p.closedCPU += cpu
		// A MemStore holds its whole log in memory until a snapshot
		// resets it; cut one between slices, untimed, so the log stays
		// as short as a slice and appending to it stays cheap.
		if st.store == nil {
			if err := st.srv.Snapshot(); err != nil {
				return nil, fmt.Errorf("snapshot: %w", err)
			}
		}
	}
	p.mallocs = mallocs() - m0
	if gc1, tot1 := gcCPU(); tot1 > tot0 {
		p.gcFrac = (gc1 - gc0) / (tot1 - tot0)
	}
	p.measured = p.attempted - warm
	if counter != nil {
		p.attempts = counter.attempts.Load() - attempts0
	}

	status, err := d.clients[0].Status(context.Background())
	if err != nil {
		return nil, fmt.Errorf("fleet status: %w", err)
	}
	p.status = status
	sum := 0.0
	for _, n := range status.Nodes {
		sum += n.CapW
	}
	if sum > status.BudgetW+1e-6 {
		p.problems = append(p.problems, fmt.Sprintf("caps sum %.3f W over budget %.3f W", sum, status.BudgetW))
	}
	if len(status.Nodes) != ctlNodes {
		p.problems = append(p.problems, fmt.Sprintf("status lists %d nodes, want %d", len(status.Nodes), ctlNodes))
	}
	if status.Stats.Reports != p.ok {
		p.problems = append(p.problems, fmt.Sprintf("coordinator applied %d reports, clients had %d granted",
			status.Stats.Reports, p.ok))
	}
	return p, nil
}

// cpRun is one measured drive of the control plane: the open loop
// against the FileStore stack, then the closed loop against an
// in-memory stack, each stack fed the seed's report stream from its
// start. Both stacks are closed; traced seams stay readable.
type cpRun struct {
	open, closed *cpPass
	file, mem    *cpStack
}

func driveStacks(file *cpStack, tmp string, seed int64, open, closed time.Duration, traced bool) (*cpRun, error) {
	run := &cpRun{file: file}
	var err error
	run.open, err = drive(file, newReportStream(seed), seed, open, 0, traced)
	if cerr := file.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	if run.mem, err = startStack(filepath.Join(tmp, "state-mem"), true, traced); err != nil {
		return nil, err
	}
	run.closed, err = drive(run.mem, newReportStream(seed), seed, 0, closed, traced)
	if cerr := run.mem.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	return run, nil
}

func runControlPlane(cfg config, r *result) error {
	r.params["nodes"] = ctlNodes
	r.params["clients"] = ctlClients
	r.params["open_rate_per_s"] = ctlOpenRate
	r.params["open_loop_s"] = cfg.passSeconds() / 3
	r.params["closed_loop_s"] = cfg.passSeconds() * 2 / 3
	r.params["lease_ttl_epochs"] = ctlLeaseTTL
	r.params["snapshot"] = "on shutdown"
	r.params["set_up_repetitions"] = ctlSetupReps
	r.params["open_loop_store"] = "FileStore"
	r.params["closed_loop_store"] = "MemStore"
	r.params["tail_quantile"] = ctlTailQ
	// The closed loop gets the larger share: its throughput swings most
	// from second to second, so it needs the longer average.
	open := time.Duration(cfg.passSeconds() / 3 * float64(time.Second))
	closed := 2 * open

	var setup []float64
	var st *cpStack
	for i := 0; i < ctlSetupReps; i++ {
		c0 := cpuTime()
		s, err := startStack(filepath.Join(cfg.tmp, fmt.Sprintf("state-%d", i)), false, false)
		if err != nil {
			return err
		}
		setup = append(setup, (cpuTime() - c0).Seconds())
		if st != nil {
			if err := st.close(); err != nil {
				return err
			}
		}
		st = s
	}
	plain, err := driveStacks(st, cfg.tmp, cfg.seed, open, closed, false)
	if err != nil {
		return err
	}
	plain.account(r)
	r.e2e["setup_s"] = median(setup)
	// Capacity is counted per CPU second of the whole process, clients
	// included, and against an in-memory store: the median over the
	// half-second closed-loop slices. Against the FileStore an fsync is
	// half of a report's CPU time, and on a shared disk how long the
	// fsyncs take moves that half by a third from one minute to the
	// next. The FileStore's cost shows in the open loop's latency and in
	// durable.*. The per-wall-second rate stays in the record.
	r.e2e["ops_per_cpu_s"] = median(plain.closed.closedRates)
	r.e2e["lat_p50_ms"] = median(plain.open.openLat)
	r.e2e["lat_tail_ms"] = quantile(plain.open.openLat, ctlTailQ)
	r.e2e["allocs_per_op"] = float64(plain.open.mallocs+plain.closed.mallocs) /
		float64(plain.open.measured+plain.closed.measured)
	r.params["open_reports"] = len(plain.open.openLat)
	r.params["closed_reports"] = plain.closed.closedReports
	r.params["closed_mean_per_s"] = float64(plain.closed.closedReports) / plain.closed.closedWall.Seconds()
	if !cfg.trace {
		return nil
	}

	ts, err := startStack(filepath.Join(cfg.tmp, "state-traced"), false, true)
	if err != nil {
		return err
	}
	prof, err := startProfile(cfg.tmp, cfg.workload)
	if err != nil {
		ts.close()
		return err
	}
	traced, err := driveStacks(ts, cfg.tmp, cfg.seed, open, closed, true)
	cpu, perr := prof.stop()
	if err == nil {
		err = perr
	}
	if err != nil {
		return err
	}
	traced.account(r)
	for l, v := range cpu {
		r.layers[cpuMetric(l)] = v
	}
	op, cl := traced.open, traced.closed
	handle := append(traced.file.handler.report.snapshot(), traced.mem.handler.report.snapshot()...)
	appends := traced.file.tstore.appends.snapshot()
	snaps := traced.file.tstore.snapshots.snapshot()
	stats := op.status.Stats
	stats.MovedW += cl.status.Stats.MovedW
	stats.Arbitrations += cl.status.Stats.Arbitrations
	stats.Reports += cl.status.Stats.Reports
	stats.LeaseExpirations += cl.status.Stats.LeaseExpirations
	r.layers["coordinator.handle_p50_ms"] = median(handle)
	r.layers["coordinator.handle_p99_ms"] = quantile(handle, 0.99)
	r.layers["durable.append_calls"] = float64(len(appends))
	r.layers["durable.append_p50_ms"] = median(appends)
	r.layers["durable.append_p99_ms"] = quantile(appends, 0.99)
	r.layers["durable.snapshot_calls"] = float64(len(snaps))
	r.layers["durable.snapshot_s"] = sum(snaps) / 1e3
	r.layers["coordinator.epochs"] = float64(op.status.Epoch + cl.status.Epoch)
	r.layers["coordinator.moved_w"] = stats.MovedW
	r.layers["coordinator.arbitrations"] = float64(stats.Arbitrations)
	r.layers["coordinator.reports_applied"] = float64(stats.Reports)
	r.layers["coordinator.lease_expirations"] = float64(stats.LeaseExpirations)
	r.layers["http.attempts_per_report"] = float64(op.attempts+cl.attempts) / float64(op.measured+cl.measured)
	r.layers["http.client_gap_ms"] = median(append(op.calls, cl.calls...)) - median(handle)
	r.layers["gen.lateness_p99_ms"] = quantile(op.lateness, 0.99)
	r.layers["runtime.gc_frac"] = cl.gcFrac
	r.layers["trace.overhead_frac"] = cl.closedCPU.Seconds()/float64(cl.closedReports)/
		(plain.closed.closedCPU.Seconds()/float64(plain.closed.closedReports)) - 1
	return nil
}

// account folds both passes' operation counts and check failures into r.
func (run *cpRun) account(r *result) {
	for _, p := range []*cpPass{run.open, run.closed} {
		r.attempted += p.attempted
		r.failed += p.attempted - p.ok
		r.problems = append(r.problems, p.problems...)
	}
}
