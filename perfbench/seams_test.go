package main

import (
	"testing"

	"sturgeon/internal/cluster"
	"sturgeon/internal/control"
	"sturgeon/internal/core"
	"sturgeon/internal/hw"
	"sturgeon/internal/invariant"
	"sturgeon/internal/obs"
	"sturgeon/internal/power"
	"sturgeon/internal/sim"
	"sturgeon/internal/workload"
)

// fakeCtrl implements every optional interface the cluster asserts.
type fakeCtrl struct {
	budget power.Watts
	sink   *obs.Sink
	obsSet bool
}

func (f *fakeCtrl) Name() string                            { return "fake" }
func (f *fakeCtrl) Decide(ob control.Observation) hw.Config { return ob.Config }
func (f *fakeCtrl) SetBudget(w power.Watts)                 { f.budget = w }
func (f *fakeCtrl) SteadyKey() (any, bool)                  { return "fake-key", true }
func (f *fakeCtrl) SetObs(s *obs.Sink)                      { f.sink, f.obsSet = s, true }

func TestCtrlWrapperForwards(t *testing.T) {
	inner := &fakeCtrl{}
	w := wrapCtrl(inner)
	var c control.Controller = w
	c.(control.CapSetter).SetBudget(123)
	if inner.budget != 123 {
		t.Errorf("SetBudget not forwarded: inner budget %v", inner.budget)
	}
	if k, ok := c.(control.Steady).SteadyKey(); !ok || k != "fake-key" {
		t.Errorf("SteadyKey = (%v, %v), want the inner key", k, ok)
	}
	sink := obs.New(16)
	c.(obs.Instrumentable).SetObs(sink)
	if !inner.obsSet || inner.sink != sink {
		t.Error("SetObs not forwarded")
	}

	// A controller without the optional interfaces stays without them in
	// effect: no steady key, and SetBudget/SetObs are no-ops.
	st := wrapCtrl(control.Static{Cfg: hw.Config{}})
	st.SetBudget(1)
	st.SetObs(nil)
	if k, ok := st.SteadyKey(); !ok || k != (hw.Config{}) {
		t.Errorf("Static SteadyKey = (%v, %v), want its config", k, ok)
	}
	if _, ok := wrapCtrl(&core.Sturgeon{}).SteadyKey(); ok {
		t.Error("wrapper invented a steady key for a controller without one")
	}
}

// Each simulated workload must produce byte-identical simulated output
// with no seam attached, with the untraced seams and with every traced
// seam: the traced run measures the same program.
func TestSeamsPreserveBehaviour(t *testing.T) {
	const seed = 20260817
	t.Run(wNode, func(t *testing.T) {
		pred, err := trainNode(seed)
		if err != nil {
			t.Fatal(err)
		}
		ls, be := workload.Xapian(), workload.Ferret()
		node := sim.NewNode(ls, be, seed)
		budget := sim.LSPeakPower(node.Spec, node.PowerParams, node.Bus, ls)
		if err := node.Apply(hw.SoloLS(node.Spec)); err != nil {
			t.Fatal(err)
		}
		r := sim.Runner{Node: node, Ctrl: core.New(node.Spec, pred, budget, core.Options{}),
			Budget: budget, Trace: workload.Diurnal(0.15, 0.95, nodeDayS), DurationS: nodeDayS}
		bare := summaryHash(fmtResult(r.Run()))
		out, err := nodeDay(pred, seed)
		if err != nil {
			t.Fatal(err)
		}
		if got := summaryHash(out.summary); got != bare {
			t.Errorf("wrapped day %s, bare day %s", got, bare)
		}
		if len(out.lat) == 0 || out.layers["control.decide_calls"] != nodeDayS {
			t.Errorf("wrapper saw %v decisions and %d searches", out.layers["control.decide_calls"], len(out.lat))
		}
	})
	t.Run(wFleet, func(t *testing.T) {
		s := derive(seed, 0)
		co, po := fleetDayOptions(s)
		cc, err := cluster.BuildCoordFleet(co)
		if err != nil {
			t.Fatal(err)
		}
		cc.Invariants = invariant.New(co.EvenCapW*float64(co.Nodes), 0)
		cc.Parallelism = fleetParallelism
		pc, err := cluster.BuildPlacementFleet(po)
		if err != nil {
			t.Fatal(err)
		}
		pc.Parallelism = fleetParallelism
		bare := "coordpartition8-leased\n" + cc.Run(co.Trace(), co.DurationS).Summary() +
			"placement-flashcrowd12-placed\n" + pc.Run(po.Trace(), po.DurationS).Summary()
		checkIter(t, fleetDayIter, s, bare, "placement.model_calls")
	})
	t.Run(wFleet10, func(t *testing.T) {
		s := derive(seed, 0)
		o := fleet10kOptions(s)
		c, err := cluster.BuildFleet10k(o)
		if err != nil {
			t.Fatal(err)
		}
		c.Parallelism = fleetParallelism
		checkIter(t, fleet10kIter, s, c.Run(o.Trace(), o.DurationS).Summary(), "cluster.active_s")
	})
}

// checkIter runs one iteration untraced and traced and compares both
// summaries with the bare run's; counter must read non-zero when traced.
func checkIter(t *testing.T, iter func(int64, bool) (iterOut, error), seed int64, bare, counter string) {
	t.Helper()
	for _, traced := range []bool{false, true} {
		out, err := iter(seed, traced)
		if err != nil {
			t.Fatal(err)
		}
		if len(out.problems) > 0 {
			t.Errorf("traced=%v: output checks failed: %v", traced, out.problems)
		}
		if out.summary != bare {
			t.Errorf("traced=%v: summary %s, bare run %s", traced,
				summaryHash(out.summary), summaryHash(bare))
		}
		if traced && (out.layers[counter] <= 0 || out.layers["control.decide_calls"] <= 0) {
			t.Errorf("traced seams recorded nothing: %v", out.layers)
		}
		if len(out.lat) == 0 {
			t.Errorf("traced=%v: no fleet-second latency samples", traced)
		}
	}
}
