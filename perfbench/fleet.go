package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"sturgeon/internal/cluster"
	"sturgeon/internal/invariant"
	"sturgeon/internal/placement"
	"sturgeon/internal/queueing"
	"sturgeon/internal/workload"
)

// fleetParallelism is the stepping parallelism of every fleet run (the
// benchmark host's nproc; recorded with each result). The workers share
// the benchmark's one P (main.go), so the pool's fan-out and merge run
// and cost CPU, but no run is timed on two CPUs at once.
const fleetParallelism = 2

// fleetRun is one instrumented cluster run.
type fleetRun struct {
	res    cluster.Result
	wall   time.Duration
	cpu    time.Duration
	ctrls  []*timedCtrl // node 0's first: it records the fleet seconds
	active int
}

// runCluster wraps node 0's controller (every node's when traced) and
// runs the fleet. Node 0's wrapper records the process CPU time of each
// simulated fleet second it takes part in.
func runCluster(c *cluster.Cluster, tr workload.Trace, durationS int, traced bool) fleetRun {
	fr := fleetRun{}
	for i, ctl := range c.Ctrls {
		if i > 0 && !traced {
			break
		}
		w := wrapCtrl(ctl)
		c.Ctrls[i] = w
		fr.ctrls = append(fr.ctrls, w)
	}
	c.Parallelism = fleetParallelism
	runtime.GC()
	cpu0 := cpuTime()
	fr.ctrls[0].start()
	t0 := time.Now()
	fr.res = c.Run(tr, durationS)
	fr.wall = time.Since(t0)
	fr.ctrls[0].finish()
	fr.cpu = cpuTime() - cpu0
	fr.active = c.EventActiveSeconds()
	return fr
}

// addCtrlLayers sums the controller seam counters of a run, plus the
// run's wall and CPU time that perIteration turns into pool.cpu_util.
func (fr *fleetRun) addCtrlLayers(l map[string]float64) {
	for _, w := range fr.ctrls {
		l["control.decide_calls"] += float64(w.calls)
		l["control.decide_s"] += w.busy.Seconds()
	}
	l["_run_s"] += fr.wall.Seconds()
	l["_cpu_s"] += fr.cpu.Seconds()
}

// fleetDayOptions are the two arms of a fleet-day iteration, each on its
// own seed derived from the iteration seed.
func fleetDayOptions(seed int64) (cluster.CoordFleetOptions, cluster.PlacementFleetOptions) {
	co := cluster.DefaultCoordFleet(derive(seed, 1))
	co.Coordinated, co.Partition, co.Leased = true, true, true
	po := cluster.DefaultPlacementFleet(derive(seed, 2))
	po.Placed = true
	return co, po
}

// fleetDayIter runs the coordpartition8-leased arm, then the
// placement-flashcrowd12-placed arm.
func fleetDayIter(seed int64, traced bool) (iterOut, error) {
	out := iterOut{layers: map[string]float64{}}
	co, po := fleetDayOptions(seed)
	var models []*timedModel
	if traced {
		// The default path builds one Physics model per job over one
		// shared latency cache per fleet; this does the same behind
		// timing wrappers.
		shared := queueing.NewCache()
		po.Models = func(ls, be workload.Profile) placement.PairModel {
			ph := placement.NewPhysics(ls, be)
			ph.Latency = shared
			m := &timedModel{inner: ph}
			models = append(models, m)
			return m
		}
	}

	b0 := cpuTime()
	cc, err := cluster.BuildCoordFleet(co)
	if err != nil {
		return out, err
	}
	inv := invariant.New(co.EvenCapW*float64(co.Nodes), 0)
	cc.Invariants = inv
	pc, err := cluster.BuildPlacementFleet(po)
	if err != nil {
		return out, err
	}
	out.build = cpuTime() - b0

	cr := runCluster(cc, co.Trace(), co.DurationS, traced)
	pr := runCluster(pc, po.Trace(), po.DurationS, traced)

	out.nodeSeconds = float64(co.Nodes*co.DurationS + po.Nodes*po.DurationS)
	out.simCPU = cr.cpu + pr.cpu
	out.summary = "coordpartition8-leased\n" + cr.res.Summary() +
		"placement-flashcrowd12-placed\n" + pr.res.Summary()
	out.be = (cr.res.MeanBEThroughputUPS + pr.res.MeanBEThroughputUPS) / 2
	out.qos = (cr.res.QoSRate + pr.res.QoSRate) / 2
	out.lat = append(cr.ctrls[0].gaps, pr.ctrls[0].gaps...)
	out.problems = append(checkSim(cr.res.QoSRate, cr.res.MeanBEThroughputUPS),
		checkSim(pr.res.QoSRate, pr.res.MeanBEThroughputUPS)...)
	violations := len(inv.Violations()) + inv.DroppedViolations()
	if violations > 0 {
		out.problems = append(out.problems, fmt.Sprintf("budget invariant violated %d times: %s",
			violations, inv.Violations()[0]))
	}
	if inv.Checks() == 0 {
		out.problems = append(out.problems, "budget invariant checker never ran")
	}
	if !traced {
		return out, nil
	}
	l := out.layers
	cr.addCtrlLayers(l)
	pr.addCtrlLayers(l)
	for _, m := range models {
		l["placement.model_calls"] += float64(m.calls)
		l["placement.model_s"] += m.busy.Seconds()
	}
	l["coordinator.epochs"] = float64(cr.res.Coord.Epochs)
	l["coordinator.fallbacks"] = float64(cr.res.Coord.Fallbacks)
	l["coordinator.moved_w"] = cr.res.Coord.MovedW
	l["invariant.violations"] = float64(violations)
	l["cluster.coord_run_s"] = cr.wall.Seconds()
	l["cluster.placement_run_s"] = pr.wall.Seconds()
	l["cluster.build_s"] = out.build.Seconds()
	return out, nil
}

// perIteration divides summed layer counters by the iteration count and
// derives the pool utilization.
func perIteration(sum map[string]float64, p *pass) map[string]float64 {
	out := map[string]float64{}
	for k, v := range sum {
		if k[0] != '_' {
			out[k] = v / float64(p.iters)
		}
	}
	if sum["_run_s"] > 0 {
		out["pool.cpu_util"] = sum["_cpu_s"] / (sum["_run_s"] * float64(min(fleetParallelism, runtime.GOMAXPROCS(0))))
	}
	return out
}

func runFleetDay(cfg config, r *result) error {
	co := cluster.DefaultCoordFleet(0)
	po := cluster.DefaultPlacementFleet(0)
	r.params["arms"] = []string{"coordpartition8-leased", "placement-flashcrowd12-placed"}
	r.params["nodes"] = []int{co.Nodes, po.Nodes}
	r.params["duration_s"] = []int{co.DurationS, po.DurationS}
	r.params["engine"] = "step"
	r.params["parallelism"] = fleetParallelism
	s := &simSpec{cycle: 16, warmup: 2, tailQ: 0.99, iter: fleetDayIter, finish: perIteration}
	return runSim(s, cfg, nil, r)
}

// fleet10kOptions is cluster.DefaultFleet10k with the iteration seed.
// The fleet's nodes are noiseless, so Seed alone changes no output; the
// seed also scales each hourly load level by up to ±2 %, so another seed
// simulates another day.
func fleet10kOptions(seed int64) cluster.Fleet10kOptions {
	o := cluster.DefaultFleet10k()
	o.Seed = seed
	for h, l := range o.Levels {
		jitter := 1 + 0.04*(unit(derive(seed, 100+uint64(h)))-0.5)
		o.Levels[h] = math.Round(l*jitter*1e3) / 1e3
	}
	return o
}

// fleet10kIter builds and runs the 10 000-node day on the event engine.
func fleet10kIter(seed int64, traced bool) (iterOut, error) {
	out := iterOut{layers: map[string]float64{}}
	o := fleet10kOptions(seed)
	b0 := cpuTime()
	c, err := cluster.BuildFleet10k(o)
	if err != nil {
		return out, err
	}
	out.build = cpuTime() - b0
	fr := runCluster(c, o.Trace(), o.DurationS, traced)
	out.nodeSeconds = float64(o.Nodes) * float64(o.DurationS)
	out.simCPU = fr.cpu
	out.summary = fr.res.Summary()
	out.be, out.qos = fr.res.MeanBEThroughputUPS, fr.res.QoSRate
	out.lat = fr.ctrls[0].gaps
	out.problems = checkSim(fr.res.QoSRate, fr.res.MeanBEThroughputUPS)
	if fr.active <= 0 || fr.active > o.DurationS {
		out.problems = append(out.problems, fmt.Sprintf("event engine reported %d active seconds", fr.active))
	}
	if traced {
		fr.addCtrlLayers(out.layers)
		out.layers["cluster.active_s"] = float64(fr.active)
		out.layers["cluster.build_s"] = out.build.Seconds()
	}
	return out, nil
}

func runFleet10k(cfg config, r *result) error {
	o := cluster.DefaultFleet10k()
	r.params["nodes"] = o.Nodes
	r.params["duration_s"] = o.DurationS
	r.params["engine"] = "event"
	r.params["parallelism"] = fleetParallelism
	s := &simSpec{cycle: 8, warmup: 2, tailQ: 0.90, iter: fleet10kIter, finish: perIteration}
	return runSim(s, cfg, nil, r)
}
