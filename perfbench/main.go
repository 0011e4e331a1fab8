// Command perfbench is the repository benchmark: four workloads that
// between them run every layer of the Sturgeon simulator and its control
// plane, measured end to end (untraced) and layer by layer (traced).
//
//	bash perfbench/run.sh --workload node-diurnal --seed 1 --seconds 10 --trace 0
//
// --workload all runs every workload in one process. The last line of
// standard output is the JSON result; the lines before it are the run's
// record (host, revision, seed, parameters, summary hashes) and a
// human-readable table. See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// The runtime settings every workload runs under. One P: the host
// metrics are read from the process CPU clock, and with a second P the
// Go scheduler spins an idle thread whenever work is handed between
// goroutines, CPU time that tracks how long the other goroutine took
// (a fleet worker's share, an fsync) rather than the work done; the
// fleets still step through their two-worker pool. GOGC 400, with a
// collection forced before every timed section: whether a collection
// of fleet10k-event's 100 MB heap lands inside a timed run otherwise
// depends on the pacer, and moves the run's time by a fifth.
const (
	benchProcs = 1
	benchGOGC  = 400
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	tmp      string // temporary directory inside the working tree
}

// passSeconds is the measured time of one pass: the whole run untraced,
// half of it for each of the two passes of a traced run.
func (c config) passSeconds() float64 {
	if c.trace {
		return c.seconds / 2
	}
	return c.seconds
}

// result is one workload run's outcome.
type result struct {
	attempted, failed int
	problems          []string
	e2e, layers       map[string]float64
	params            map[string]any
	summaries         map[string]string
}

func newResult() *result {
	return &result{e2e: map[string]float64{}, layers: map[string]float64{},
		params: map[string]any{}, summaries: map[string]string{}}
}

// workloads maps each name to its runner, in BENCHMARK.json order.
var workloads = []struct {
	name string
	run  func(config, *result) error
}{
	{wNode, runNode},
	{wFleet, runFleetDay},
	{wFleet10, runFleet10k},
	{wCtl, runControlPlane},
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload name, or all")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measured seconds per pass")
	flag.IntVar(&trace, "trace", 0, "1 adds the traced pass and reports per-layer metrics")
	flag.Parse()
	if flag.NArg() > 0 || cfg.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: usage: --workload NAME|all --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	cfg.trace = trace == 1
	runtime.GOMAXPROCS(benchProcs)
	debug.SetGCPercent(benchGOGC)
	os.Exit(run(cfg))
}

func run(cfg config) int {
	var names []string
	for _, w := range workloads {
		if cfg.workload == "all" || cfg.workload == w.name {
			names = append(names, w.name)
		}
	}
	if len(names) == 0 {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", cfg.workload)
		return 2
	}
	// A directory of its own, so that two runs in one tree never share
	// state directories.
	tmp, err := filepath.Abs(".bench_build")
	if err == nil {
		err = os.MkdirAll(tmp, 0o755)
	}
	if err == nil {
		tmp, err = os.MkdirTemp(tmp, "perfbench-tmp-")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(tmp)
	cfg.tmp = tmp

	final := output{Correct: true, Metrics: map[string]value{}}
	for _, name := range names {
		wc := cfg
		wc.workload = name
		out, err := runOne(wc)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
			return 1
		}
		final.Correct = final.Correct && out.Correct
		final.Attempted += out.Attempted
		final.Failed += out.Failed
		for k, v := range out.Metrics {
			if len(names) > 1 {
				k = name + "/" + k
			}
			final.Metrics[k] = v
		}
	}
	line, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !final.Correct {
		return 1
	}
	return 0
}

// runOne runs one workload, prints its record and table, and returns
// its result object.
func runOne(cfg config) (output, error) {
	r := newResult()
	for _, w := range workloads {
		if w.name == cfg.workload {
			if err := w.run(cfg, r); err != nil {
				return output{}, err
			}
		}
	}
	r.e2e["peak_rss_mib"] = peakRSSMiB()

	out := output{Attempted: r.attempted, Failed: r.failed, Metrics: map[string]value{}}
	out.Correct = r.failed == 0 && len(r.problems) == 0 && r.attempted > 0
	defs := endToEnd
	vals := r.e2e
	if cfg.trace {
		defs, vals = perLayer, r.layers
	}
	for _, m := range defs {
		v := vals[m.Name]
		if math.IsInf(v, 0) || math.IsNaN(v) {
			v = math.MaxFloat64 // a failed request: over any limit
		}
		out.Metrics[m.Name] = value{Value: v, Unit: m.Unit}
	}

	rec := map[string]any{
		"workload":     cfg.workload,
		"seed":         cfg.seed,
		"seconds":      cfg.seconds,
		"trace":        cfg.trace,
		"host":         fingerprint(),
		"git_revision": revision(),
		"params":       r.params,
		"summaries":    r.summaries,
	}
	b, err := json.Marshal(map[string]any{"record": rec})
	if err != nil {
		return output{}, err
	}
	fmt.Println(string(b))
	for _, p := range r.problems {
		fmt.Fprintf(os.Stderr, "perfbench: %s: check failed: %s\n", cfg.workload, p)
	}
	printTable(cfg.workload, r, cfg.trace)
	return out, nil
}

// printTable writes the human-readable view, error rate included.
func printTable(name string, r *result, traced bool) {
	var b strings.Builder
	rate := 0.0
	if r.attempted > 0 {
		rate = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(&b, "# %s: attempted %d failed %d error_rate %g\n", name, r.attempted, r.failed, rate)
	for _, m := range endToEnd {
		fmt.Fprintf(&b, "#   %-30s %14.6g %s\n", m.Name, r.e2e[m.Name], m.Unit)
	}
	if traced {
		keys := make([]string, 0, len(r.layers))
		for k := range r.layers {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&b, "#   %-30s %14.6g %s\n", k, r.layers[k], unitOf(perLayer, k))
		}
	}
	fmt.Print(b.String())
}
