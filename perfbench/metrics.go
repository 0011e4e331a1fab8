package main

import "fmt"

// metric describes one reported number. End-to-end metrics carry the
// regression bound BENCHMARK.json pins; per-layer metrics carry the
// end-to-end metric they should move and the workloads they apply to.
type metric struct {
	Name, Unit, Better string
	Bound              float64 // end-to-end only
	Moves, On          string  // per-layer only
}

// The four workload names, as BENCHMARK.json lists them.
const (
	wNode    = "node-diurnal"
	wFleet   = "fleet-day"
	wFleet10 = "fleet10k-event"
	wCtl     = "control-plane"
)

// endToEnd is the untraced metric set. Every workload reports every
// metric; "op" and "request" take each workload's meaning (README.md).
// Every timing is read from the process CPU clock (stats.go), except
// the control plane's open-loop latencies, which are wall time from each
// report's scheduled send. The timing bounds are wide because on a
// shared 2-CPU host the medians of two sets of runs minutes apart
// differ by up to a tenth; allocs_per_op varies only with the seed's
// inputs (4 % on node-diurnal).
var endToEnd = []metric{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "ops_per_cpu_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "lat_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "lat_tail_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "allocs_per_op", Unit: "count", Better: "lower", Bound: 0.15},
	{Name: "peak_rss_mib", Unit: "MiB", Better: "lower", Bound: 0.25},
}

// cpuLayers are the profile-fold buckets: every sturgeon/internal
// package the workloads link, the benchmark's own frames, and the three
// buckets for stacks without a sturgeon frame.
var cpuLayers = []string{
	"cache", "cluster", "control", "coordinator", "core", "des", "durable",
	"faults", "hw", "invariant", "jsonio", "mlkit", "models", "obs",
	"placement", "pool", "power", "queueing", "sim", "telemetry", "workload",
	"bench", "nethttp", "runtime.gc", "other",
}

// cpuMetric names a fold bucket's share of profiled CPU.
func cpuMetric(layer string) string { return layer + ".cpu_frac" }

const (
	sims = wNode + "," + wFleet + "," + wFleet10
	all  = sims + "," + wCtl
)

// perLayer is the traced metric set. Each names the end-to-end metric
// it should move and the workloads where it applies; on the others it
// reads 0.
var perLayer = func() []metric {
	ms := []metric{
		{"core.search_calls", "count", "lower", 0, "lat_p50_ms,lat_tail_ms", wNode},
		{"core.search_s", "s", "lower", 0, "lat_p50_ms,lat_tail_ms,ops_per_cpu_s", wNode},
		{"core.balancer_steps", "count", "lower", 0, "ops_per_cpu_s", wNode},
		{"models.queries", "count", "lower", 0, "lat_p50_ms,lat_tail_ms,ops_per_cpu_s", wNode},
		{"models.queries_per_search", "count", "lower", 0, "lat_p50_ms,lat_tail_ms", wNode},
		{"models.train_s", "s", "lower", 0, "setup_s", wNode},
		{"control.decide_calls", "count", "lower", 0, "ops_per_cpu_s", sims},
		{"control.decide_s", "s", "lower", 0, "ops_per_cpu_s,lat_p50_ms", sims},
		{"placement.model_calls", "count", "lower", 0, "ops_per_cpu_s", wFleet},
		{"placement.model_s", "s", "lower", 0, "ops_per_cpu_s,lat_tail_ms", wFleet},
		{"coordinator.epochs", "count", "higher", 0, "lat_tail_ms", wFleet + "," + wCtl},
		{"coordinator.fallbacks", "count", "lower", 0, "lat_tail_ms", wFleet},
		{"coordinator.moved_w", "W", "higher", 0, "ops_per_cpu_s", wFleet + "," + wCtl},
		{"invariant.violations", "count", "lower", 0, "correct", wFleet},
		{"cluster.coord_run_s", "s", "lower", 0, "ops_per_cpu_s", wFleet},
		{"cluster.placement_run_s", "s", "lower", 0, "ops_per_cpu_s", wFleet},
		{"pool.cpu_util", "fraction", "higher", 0, "ops_per_cpu_s", wFleet + "," + wFleet10},
		{"cluster.active_s", "count", "lower", 0, "ops_per_cpu_s", wFleet10},
		{"cluster.build_s", "s", "lower", 0, "setup_s", wFleet + "," + wFleet10},
		{"coordinator.handle_p50_ms", "ms", "lower", 0, "lat_p50_ms", wCtl},
		{"coordinator.handle_p99_ms", "ms", "lower", 0, "lat_tail_ms", wCtl},
		{"durable.append_calls", "count", "lower", 0, "lat_p50_ms,lat_tail_ms", wCtl},
		{"durable.append_p50_ms", "ms", "lower", 0, "lat_p50_ms", wCtl},
		{"durable.append_p99_ms", "ms", "lower", 0, "lat_tail_ms", wCtl},
		{"durable.snapshot_calls", "count", "lower", 0, "lat_tail_ms", wCtl},
		{"durable.snapshot_s", "s", "lower", 0, "lat_tail_ms", wCtl},
		{"coordinator.arbitrations", "count", "higher", 0, "ops_per_cpu_s", wCtl},
		{"coordinator.reports_applied", "count", "higher", 0, "ops_per_cpu_s", wCtl},
		{"coordinator.lease_expirations", "count", "lower", 0, "lat_tail_ms", wCtl},
		{"http.attempts_per_report", "count", "lower", 0, "correct,lat_tail_ms", wCtl},
		{"http.client_gap_ms", "ms", "lower", 0, "lat_p50_ms", wCtl},
		{"gen.lateness_p99_ms", "ms", "lower", 0, "lat_tail_ms", wCtl},
		{"sim.be_ups", "units/s", "higher", 0, "none: repeats exactly per seed", sims},
		{"sim.qos_rate", "fraction", "higher", 0, "none: repeats exactly per seed", sims},
		{"runtime.gc_frac", "fraction", "lower", 0, "allocs_per_op,ops_per_cpu_s", all},
		{"trace.overhead_frac", "fraction", "lower", 0, "none: traced vs untraced time per op", all},
	}
	for _, l := range cpuLayers {
		moves, on := cpuMoves[l], cpuOn[l]
		if moves == "" {
			moves = "ops_per_cpu_s"
		}
		if on == "" {
			on = all
		}
		ms = append(ms, metric{cpuMetric(l), "fraction", "lower", 0, moves, on})
	}
	return ms
}()

// cpuMoves and cpuOn map each fold bucket to the end-to-end metric a
// change in that layer should move and the workloads that exercise it.
var cpuMoves = map[string]string{
	"mlkit": "lat_p50_ms,lat_tail_ms,ops_per_cpu_s", "models": "lat_p50_ms,lat_tail_ms,ops_per_cpu_s",
	"core": "lat_p50_ms,lat_tail_ms,ops_per_cpu_s", "queueing": "ops_per_cpu_s,lat_p50_ms",
	"coordinator": "lat_p50_ms,lat_tail_ms,ops_per_cpu_s", "durable": "lat_tail_ms,ops_per_cpu_s",
	"jsonio": "lat_p50_ms,ops_per_cpu_s", "nethttp": "lat_p50_ms,ops_per_cpu_s",
	"cluster": "ops_per_cpu_s,setup_s", "des": "ops_per_cpu_s",
}

var cpuOn = map[string]string{
	"mlkit": wNode, "models": wNode, "core": wNode,
	"queueing": wFleet + "," + wFleet10, "placement": wFleet, "invariant": wFleet,
	"coordinator": wFleet + "," + wCtl, "durable": wCtl, "jsonio": wCtl, "nethttp": wCtl,
	"cluster": wFleet + "," + wFleet10, "des": wFleet10, "pool": wFleet + "," + wFleet10,
	"control": wFleet + "," + wFleet10, "sim": sims, "power": sims, "cache": sims,
}

func init() {
	seen := map[string]bool{}
	for _, m := range append(append([]metric{}, endToEnd...), perLayer...) {
		if seen[m.Name] {
			panic(fmt.Sprintf("perfbench: metric %s defined twice", m.Name))
		}
		seen[m.Name] = true
	}
}

func unitOf(defs []metric, name string) string {
	for _, m := range defs {
		if m.Name == name {
			return m.Unit
		}
	}
	return ""
}
