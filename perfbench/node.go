package main

import (
	"fmt"
	"runtime"

	"sturgeon/internal/core"
	"sturgeon/internal/hw"
	"sturgeon/internal/models"
	"sturgeon/internal/sim"
	"sturgeon/internal/workload"
)

// node-diurnal parameters: the examples/diurnal pair over its compressed
// 1440 s day (1 s per simulated minute).
const (
	nodeDayS        = 1440
	nodeTrainReps   = 5
	nodeTrainSample = 1000
	// nodeTrainSeed pins the profiling sweep, as examples/diurnal does:
	// the predictor is trained offline once, so the workload seed varies
	// the node (load noise, interference) the controller faces, not the
	// model it consults.
	nodeTrainSeed = 11
)

// trainNode fits the pair's predictor; training is the workload's set-up.
func trainNode(seed int64) (*models.Predictor, error) {
	return models.Train(workload.Xapian(), workload.Ferret(), models.TrainOptions{
		Collect: models.CollectOptions{Samples: nodeTrainSample, Seed: seed},
	})
}

// nodeDay simulates one day on a fresh node and Sturgeon controller.
func nodeDay(pred *models.Predictor, seed int64) (iterOut, error) {
	ls, be := workload.Xapian(), workload.Ferret()
	node := sim.NewNode(ls, be, seed)
	budget := sim.LSPeakPower(node.Spec, node.PowerParams, node.Bus, ls)
	st := core.New(node.Spec, pred, budget, core.Options{})
	if err := node.Apply(hw.SoloLS(node.Spec)); err != nil {
		return iterOut{}, err
	}
	w := wrapCtrl(st)
	runner := sim.Runner{Node: node, Ctrl: w, Budget: budget,
		Trace: workload.Diurnal(0.15, 0.95, nodeDayS), DurationS: nodeDayS}
	q0 := pred.Queries()
	runtime.GC()
	c0 := cpuTime()
	res := runner.Run()
	cpu := cpuTime() - c0

	out := iterOut{
		nodeSeconds: nodeDayS,
		simCPU:      cpu,
		summary:     fmtResult(res),
		be:          res.MeanBEThroughputUPS,
		qos:         res.QoSRate,
		lat:         w.search,
		layers: map[string]float64{
			"core.search_calls":    float64(st.Searches),
			"core.search_s":        sum(w.search) / 1e3,
			"core.balancer_steps":  float64(st.BalancerSteps),
			"models.queries":       float64(pred.Queries() - q0),
			"control.decide_calls": float64(w.calls),
			"control.decide_s":     w.busy.Seconds(),
		},
	}
	out.problems = checkSim(res.QoSRate, res.MeanBEThroughputUPS)
	if len(res.Intervals) != nodeDayS {
		out.problems = append(out.problems, fmt.Sprintf("ran %d intervals, want %d", len(res.Intervals), nodeDayS))
	}
	if st.Searches != len(w.search) {
		out.problems = append(out.problems, fmt.Sprintf("timed %d searches, controller counted %d", len(w.search), st.Searches))
	}
	return out, nil
}

// fmtResult renders a node run in full, every interval included.
func fmtResult(res sim.Result) string { return fmt.Sprintf("%+v", res) }

// checkSim is the domain check every simulated result must pass.
func checkSim(qos, be float64) []string {
	var p []string
	if !(qos >= 0 && qos <= 1) {
		p = append(p, fmt.Sprintf("qos rate %v outside [0,1]", qos))
	}
	if !(be >= 0) {
		p = append(p, fmt.Sprintf("BE throughput %v negative", be))
	}
	return p
}

// probeAllocs are the configurations the set-up repetitions are compared
// on: identically seeded trainings must give identical predictors.
var probeAllocs = []hw.Alloc{
	{Cores: 4, Freq: 1.2, LLCWays: 4}, {Cores: 8, Freq: 2.0, LLCWays: 10},
	{Cores: 14, Freq: 1.6, LLCWays: 6}, {Cores: 18, Freq: 2.2, LLCWays: 16},
}

func predictorPrint(p *models.Predictor) string {
	s := ""
	for _, a := range probeAllocs {
		s += fmt.Sprintf("%v %v %v|", p.Throughput(a), p.QoSOK(a, 0.5*p.LS.PeakQPS),
			p.PowerW(hw.Config{LS: a, BE: a}, 0.5*p.LS.PeakQPS))
	}
	return s
}

func runNode(cfg config, r *result) error {
	trainSeed := int64(nodeTrainSeed)
	var pred *models.Predictor
	var setup []float64
	print0 := ""
	for i := 0; i < nodeTrainReps; i++ {
		runtime.GC()
		c0 := cpuTime()
		p, err := trainNode(trainSeed)
		if err != nil {
			return err
		}
		setup = append(setup, (cpuTime() - c0).Seconds())
		fp := predictorPrint(p)
		if i == 0 {
			pred, print0 = p, fp
		} else if fp != print0 {
			r.failed++
			r.problems = append(r.problems, "identically seeded trainings gave different predictors")
		}
	}
	r.attempted += nodeTrainReps
	r.params["pair"] = "xapian+ferret"
	r.params["nodes"] = 1
	r.params["duration_s"] = nodeDayS
	r.params["train_samples"] = nodeTrainSample
	r.params["train_seed"] = trainSeed
	r.params["set_up_repetitions"] = nodeTrainReps
	r.params["parallelism"] = 1

	s := &simSpec{
		cycle: 4,
		tailQ: 0.90,
		iter: func(seed int64, traced bool) (iterOut, error) {
			out, err := nodeDay(pred, seed)
			if !traced {
				out.layers = nil
			}
			return out, err
		},
		finish: func(sum map[string]float64, p *pass) map[string]float64 {
			out := map[string]float64{}
			for k, v := range sum {
				out[k] = v / float64(p.iters) // per simulated day
			}
			if sum["core.search_calls"] > 0 {
				out["models.queries_per_search"] = sum["models.queries"] / sum["core.search_calls"]
			}
			out["models.train_s"] = median(append([]float64(nil), setup...))
			return out
		},
	}
	return runSim(s, cfg, setup, r)
}
