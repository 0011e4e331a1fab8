package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"time"
)

// iterOut is one simulated iteration's outcome.
type iterOut struct {
	nodeSeconds float64       // simulated node-seconds advanced
	simCPU      time.Duration // process CPU time inside the simulation calls
	build       time.Duration // fleet build CPU time (set-up), if any
	summary     string        // canonical simulated summary
	be, qos     float64       // simulated BE throughput and QoS rate
	lat         []float64     // request latency samples, ms
	problems    []string      // failed output checks
	layers      map[string]float64
}

// simSpec adapts one simulated workload to the shared measurement loop.
type simSpec struct {
	// cycle is the number of derived seeds the iterations rotate
	// through: iteration k simulates seed index k%cycle, so a run
	// averages over several inputs, every seed repeats, and a repeat
	// must reproduce its first summary exactly. Passes run whole
	// cycles. The shorter a workload's iteration, the more seeds a
	// cycle holds, so that which seeds a run draws moves its figures
	// little.
	cycle int
	// warmup iterations run untimed before each pass.
	warmup int
	// tailQ is the tail quantile reported as lat_tail_ms.
	tailQ float64
	// iter runs one iteration with the given seed; traced attaches the
	// per-layer seams.
	iter func(seed int64, traced bool) (iterOut, error)
	// finish turns the traced pass's summed layer counters into the
	// reported per-layer metrics.
	finish func(sum map[string]float64, p *pass) map[string]float64
}

// pass is one measured run of the iteration loop.
type pass struct {
	iters       int
	nodeSeconds float64
	simCPU      time.Duration
	builds      []float64 // s
	lat         []float64
	cycleRates  []float64 // node-seconds per CPU second, per seed cycle
	cycleTails  []float64 // tail latency quantile, per seed cycle
	mallocs     uint64
	summaries   map[int]string // seed index -> summary
	be, qos     []float64      // per seed index of the first cycle
	problems    []string
	failed      int
	layers      map[string]float64
	gcFrac      float64
}

func (p *pass) secPerOp() float64 { return p.simCPU.Seconds() / p.nodeSeconds }

func summaryHash(s string) string {
	h := sha256.Sum256([]byte(s))
	return hex.EncodeToString(h[:])
}

// runPass iterates whole seed cycles until seconds have elapsed.
func runPass(s *simSpec, seed int64, seconds float64, traced bool) (*pass, error) {
	p := &pass{summaries: map[int]string{}, layers: map[string]float64{}}
	var cycNodeSec float64
	var cycCPU time.Duration
	var cycLat []float64
	step := func(k int, measured bool) error {
		idx := k % s.cycle
		runtime.GC()
		out, err := s.iter(derive(seed, uint64(idx)), traced)
		if err != nil {
			return err
		}
		if prev, ok := p.summaries[idx]; ok && prev != out.summary {
			out.problems = append(out.problems, fmt.Sprintf(
				"seed index %d: summary %s differs from the first iteration's %s",
				idx, summaryHash(out.summary)[:12], summaryHash(prev)[:12]))
		} else if !ok {
			p.summaries[idx] = out.summary
			p.be = append(p.be, out.be)
			p.qos = append(p.qos, out.qos)
		}
		if len(out.problems) > 0 {
			p.failed++
			p.problems = append(p.problems, out.problems...)
		}
		if !measured {
			return nil
		}
		p.iters++
		p.nodeSeconds += out.nodeSeconds
		p.simCPU += out.simCPU
		if out.build > 0 {
			p.builds = append(p.builds, out.build.Seconds())
		}
		p.lat = append(p.lat, out.lat...)
		for k, v := range out.layers {
			p.layers[k] += v
		}
		cycNodeSec += out.nodeSeconds
		cycCPU += out.simCPU
		cycLat = append(cycLat, out.lat...)
		if idx == s.cycle-1 {
			p.cycleRates = append(p.cycleRates, cycNodeSec/cycCPU.Seconds())
			p.cycleTails = append(p.cycleTails, quantile(cycLat, s.tailQ))
			cycNodeSec, cycCPU, cycLat = 0, 0, nil
		}
		return nil
	}
	for k := 0; k < s.warmup; k++ {
		if err := step(k, false); err != nil {
			return nil, err
		}
	}
	gc0, tot0 := gcCPU()
	m0 := mallocs()
	start := time.Now()
	for k := 0; k < s.cycle || k%s.cycle != 0 || time.Since(start).Seconds() < seconds; k++ {
		if err := step(k, true); err != nil {
			return nil, err
		}
	}
	p.mallocs = mallocs() - m0
	if gc1, tot1 := gcCPU(); tot1 > tot0 {
		p.gcFrac = (gc1 - gc0) / (tot1 - tot0)
	}
	return p, nil
}

// runSim measures a simulated workload: the untraced pass gives the
// end-to-end metrics; with trace, a second pass with every seam attached
// and a CPU profile running gives the per-layer metrics, and must
// reproduce the untraced pass's summaries byte for byte. The traced
// invocation splits its time between the two passes.
func runSim(s *simSpec, cfg config, setupS []float64, r *result) error {
	plain, err := runPass(s, cfg.seed, cfg.passSeconds(), false)
	if err != nil {
		return err
	}
	r.attempted += plain.iters + s.warmup
	r.failed += plain.failed
	r.problems = append(r.problems, plain.problems...)
	for idx, sum := range plain.summaries {
		r.summaries[fmt.Sprintf("seed%d", idx)] = summaryHash(sum)
	}
	if setupS == nil {
		setupS = plain.builds
	}
	r.e2e["setup_s"] = median(setupS)
	// Throughput and tail are medians over seed cycles, so a stretch of
	// host contention shorter than half the run does not move them.
	r.e2e["ops_per_cpu_s"] = median(plain.cycleRates)
	r.e2e["lat_p50_ms"] = median(plain.lat)
	r.e2e["lat_tail_ms"] = median(plain.cycleTails)
	r.e2e["allocs_per_op"] = float64(plain.mallocs) / plain.nodeSeconds
	r.params["iterations"] = plain.iters
	r.params["latency_samples"] = len(plain.lat)
	r.params["tail_quantile"] = s.tailQ
	r.params["seed_cycle"] = s.cycle
	if !cfg.trace {
		return nil
	}

	prof, err := startProfile(cfg.tmp, cfg.workload)
	if err != nil {
		return err
	}
	traced, err := runPass(s, cfg.seed, cfg.passSeconds(), true)
	if err != nil {
		prof.stop()
		return err
	}
	cpu, err := prof.stop()
	if err != nil {
		return err
	}
	r.attempted += traced.iters + s.warmup
	r.failed += traced.failed
	r.problems = append(r.problems, traced.problems...)
	for idx, sum := range traced.summaries {
		if plain.summaries[idx] != sum {
			r.failed++
			r.problems = append(r.problems, fmt.Sprintf(
				"seed index %d: traced summary %s differs from untraced %s",
				idx, summaryHash(sum)[:12], summaryHash(plain.summaries[idx])[:12]))
		}
	}
	for k, v := range s.finish(traced.layers, traced) {
		r.layers[k] = v
	}
	for l, v := range cpu {
		r.layers[cpuMetric(l)] = v
	}
	r.layers["sim.be_ups"] = mean(plain.be)
	r.layers["sim.qos_rate"] = mean(plain.qos)
	r.layers["runtime.gc_frac"] = traced.gcFrac
	r.layers["trace.overhead_frac"] = traced.secPerOp()/plain.secPerOp() - 1
	return nil
}
