package core

import (
	"math"

	"sturgeon/internal/control"
	"sturgeon/internal/hw"
	"sturgeon/internal/models"
	"sturgeon/internal/obs"
	"sturgeon/internal/power"
)

// Options configure a Sturgeon controller.
type Options struct {
	// Alpha and Beta are the slack bounds of Algorithm 1 (defaults 0.10
	// and 0.20): slack below Alpha threatens QoS, above Beta wastes
	// resources.
	Alpha, Beta float64
	// DisableBalancer produces the paper's Sturgeon-NoB ablation.
	DisableBalancer bool
	// FixedHarvestOrder disables the balancer's preference-awareness
	// (ablation: harvest cores first, always).
	FixedHarvestOrder bool
	// SearchHeadroom overrides the searcher's grid headroom: 0 keeps the
	// default (+1 step), negative disables it (ablation).
	SearchHeadroom int
	// LoadDelta is the relative load change (fraction of peak) that
	// triggers a fresh predictor search when slack is out of bounds
	// (default 0.01). Below it, a persisting violation is attributed to
	// unpredictable interference and handed to the balancer.
	LoadDelta float64
}

func (o Options) withDefaults() Options {
	if o.Alpha == 0 {
		o.Alpha = 0.10
	}
	if o.Beta == 0 {
		o.Beta = 0.20
	}
	if o.LoadDelta == 0 {
		o.LoadDelta = 0.01
	}
	return o
}

// Sturgeon is the top-level runtime controller (Algorithm 1). Each 1 s
// interval it compares the measured latency slack against [Alpha, Beta];
// when out of bounds it either re-runs the predictor-guided configuration
// search (if the load moved) or, when the predictor's answer is already
// in force, lets the preference-aware balancer absorb the residual
// interference.
type Sturgeon struct {
	Spec   hw.Spec
	Pred   *models.Predictor
	Budget power.Watts
	Opt    Options

	searcher Searcher
	balancer Balancer

	searched      bool
	lastSearchQPS float64
	// Searches counts predictor-guided reconfigurations (for overhead
	// accounting, §VII-E).
	Searches int
	// BalancerSteps counts balancer interventions.
	BalancerSteps int

	// Observability (nil = uninstrumented; see SetObs). The residual
	// fields remember the prediction made for the last-installed search
	// answer so the next interval's measurement can be compared to it.
	obs          *obs.Sink
	searchCtr    *obs.Counter
	balanceCtr   *obs.Counter
	residualHist *obs.Histogram
	residCfg     hw.Config
	residPredW   float64
	residPending bool
}

// New builds a Sturgeon controller for one co-location pair.
func New(spec hw.Spec, pred *models.Predictor, budget power.Watts, opt Options) *Sturgeon {
	s := &Sturgeon{
		Spec:   spec,
		Pred:   pred,
		Budget: budget,
		Opt:    opt.withDefaults(),
	}
	s.searcher = Searcher{Spec: spec, Pred: pred, Budget: budget,
		HeadroomWays: s.Opt.SearchHeadroom, HeadroomFreq: s.Opt.SearchHeadroom}
	// The balancer checks harvests against the same guarded budget the
	// searcher uses, so a harvest never knowingly lands above the cap.
	s.balancer = Balancer{Spec: spec, Pred: pred, Budget: s.searcher.guardedBudget(),
		FixedOrder: s.Opt.FixedHarvestOrder}
	return s
}

// SetBudget implements control.CapSetter: re-grant the node's power
// budget at runtime. The searcher's memoized answers key on the guarded
// budget, so stale entries can never be served; the explicit drop just
// keeps the memo from carrying dead weight, and the search memo bit is
// cleared so the next interval re-searches under the new cap.
func (s *Sturgeon) SetBudget(w power.Watts) {
	if w == s.Budget {
		return
	}
	s.Budget = w
	s.searcher.Budget = w
	s.balancer.Budget = s.searcher.guardedBudget()
	s.searcher.InvalidateMemo()
	s.searched = false
}

// SetPredictor swaps in a (re)trained predictor and invalidates every
// cached search answer — required even when pred is the same pointer
// refit in place, because the memo cannot observe in-place model
// mutations.
func (s *Sturgeon) SetPredictor(pred *models.Predictor) {
	s.Pred = pred
	s.searcher.Pred = pred
	s.balancer.Pred = pred
	s.searcher.InvalidateMemo()
	s.searched = false
}

// Name identifies the controller variant.
func (s *Sturgeon) Name() string {
	if s.Opt.DisableBalancer {
		return "sturgeon-nob"
	}
	return "sturgeon"
}

// SetObs implements obs.Instrumentable: install a decision-trail sink
// (nil detaches). Counters and the residual histogram are resolved once
// here so Decide never touches the registry map on the hot path.
func (s *Sturgeon) SetObs(sink *obs.Sink) {
	s.obs = sink
	s.searchCtr = sink.Counter("sturgeon_searches_total")
	s.balanceCtr = sink.Counter("sturgeon_balancer_steps_total")
	s.residualHist = sink.Histogram("sturgeon_power_residual_watts",
		-8, -4, -2, -1, 0, 1, 2, 4, 8)
	s.residPending = false
}

// observeResidual compares the power the predictor promised for the
// last-installed search answer against the measurement that followed —
// the drift signal of DESIGN.md §11. It runs only while a sink is
// attached and only on the first interval the searched configuration is
// actually in force, so instrumentation never perturbs the decision
// sequence and costs nothing when disabled.
func (s *Sturgeon) observeResidual(ob control.Observation, slack float64) {
	if !s.residPending || ob.Config != s.residCfg {
		return
	}
	s.residPending = false
	resid := float64(ob.Power) - s.residPredW
	s.residualHist.Observe(resid)
	s.obs.Emit(obs.Event{T: ob.Time, Type: obs.EventResidual, Resource: "power", Value: resid})
	if slack < 0 {
		// The search installed this configuration believing it feasible;
		// the measured slack says otherwise. Journal the miss.
		s.obs.Emit(obs.Event{T: ob.Time, Type: obs.EventResidual, Resource: "latency", Value: slack})
	}
}

// Decide implements Algorithm 1 for one interval.
func (s *Sturgeon) Decide(ob control.Observation) hw.Config {
	slack := ob.Slack()
	// Shed slightly below the cap: RAPL-class meters carry ~1 W of read
	// noise, and a reading that hides a marginal overload for one
	// interval is enough to let a sustained excursion ride through.
	overload := float64(ob.Power) > 0.99*float64(s.Budget)

	if s.obs != nil {
		s.observeResidual(ob, slack)
	}

	inBand := slack >= s.Opt.Alpha && slack <= s.Opt.Beta
	if inBand && !overload {
		s.balancer.Reset()
		return ob.Config
	}

	// Out of band. A fresh load level warrants a predictor search; the
	// very first interval always does. While a balancing episode is
	// absorbing interference the bar is higher — the feedback loop owns
	// the configuration until the load has moved substantially, so a
	// re-search cannot keep re-installing an allocation the balancer
	// just proved insufficient.
	peak := s.Pred.LS.PeakQPS
	delta := s.Opt.LoadDelta
	if s.balancer.Active() {
		delta *= 5
	}
	loadMoved := !s.searched ||
		math.Abs(ob.QPS-s.lastSearchQPS) > delta*peak
	if loadMoved {
		first := !s.searched
		cfg, _ := s.searcher.BestConfig(ob.QPS)
		s.searched = true
		s.lastSearchQPS = ob.QPS
		s.Searches++
		s.searchCtr.Inc()
		// Never hand the LS service less capacity than the balancer
		// established at a comparable load: feedback evidence outranks
		// the offline model.
		if s.balancer.Active() && lsCapacity(cfg) < lsCapacity(ob.Config) {
			cfg = ob.Config
		} else {
			s.balancer.Reset()
		}
		if s.obs.Active() {
			reason := searchReason(first, slack, overload)
			s.obs.Emit(obs.Event{T: ob.Time, Type: obs.EventSearch, Reason: reason})
			s.obs.Span(obs.Span{Kind: obs.SpanSearch, Reason: reason,
				Start: ob.Time, End: ob.Time, Value: float64(s.Searches)})
			// Remember what the predictor promised for the installed
			// configuration so the next measured interval can score it.
			s.residCfg = cfg
			s.residPredW = float64(s.Pred.PowerW(cfg, ob.QPS))
			s.residPending = true
		}
		return cfg
	}

	// The predictor already answered for this load; the residual is
	// interference (or its aftermath).
	if s.Opt.DisableBalancer {
		return ob.Config
	}
	return s.balance(ob, slack, overload)
}

// searchReason names what pushed Algorithm 1 into a re-search: the very
// first interval, or the band violation that co-occurred with the load
// move.
func searchReason(first bool, slack float64, overload bool) string {
	switch {
	case first:
		return "initial"
	case overload:
		return "overload"
	case slack < 0:
		return "qos_violation"
	default:
		return "load_moved"
	}
}

// lsCapacity scores an LS allocation in core·GHz, the controller's
// measure of "how much service capacity does this configuration grant".
func lsCapacity(cfg hw.Config) float64 {
	return float64(cfg.LS.Cores) * float64(cfg.LS.Freq)
}

// balance routes one interval to the Algorithm 2 feedback loop.
func (s *Sturgeon) balance(ob control.Observation, slack float64, overload bool) hw.Config {
	switch {
	case overload:
		s.BalancerSteps++
		s.balanceCtr.Inc()
		next := s.balancer.ShedPower(ob.Config)
		s.emitMove(ob, next, obs.EventHarvest, "overload")
		return next
	case slack < s.Opt.Alpha:
		s.BalancerSteps++
		s.balanceCtr.Inc()
		nearCap := ob.Power > s.searcher.guardedBudget()
		deep := slack < -0.5
		next := s.balancer.Harvest(ob.Config, ob.QPS, nearCap, deep)
		s.emitMove(ob, next, obs.EventHarvest, "slack_low")
		return next
	case slack > s.Opt.Beta && s.balancer.Active() && s.balancer.Harvested():
		// Latency suddenly very low after a harvest: give half back.
		s.BalancerSteps++
		s.balanceCtr.Inc()
		next := s.balancer.Revert(ob.Config, ob.QPS)
		s.emitMove(ob, next, obs.EventRevert, "slack_high")
		return next
	default:
		// Ample slack with nothing left to revert: the interference
		// episode is over. Drop the search memo so the predictor's
		// configuration is restored on the next interval — without this,
		// a constant-load service would stay on the harvested (BE-starved)
		// configuration forever.
		if s.balancer.Active() {
			s.searched = false
		}
		s.balancer.Reset()
		return ob.Config
	}
}

// emitMove journals one balancer move (harvest, shed or revert) with the
// resource and granularity the balancer recorded for its revert path. A
// move that changed nothing journals nothing.
func (s *Sturgeon) emitMove(ob control.Observation, next hw.Config, typ, reason string) {
	if !s.obs.Active() || next == ob.Config {
		return
	}
	s.obs.Emit(obs.Event{
		T:        ob.Time,
		Type:     typ,
		Reason:   reason,
		Resource: s.balancer.lastTarget.String(),
		Amount:   s.balancer.lastAmount,
	})
	s.obs.Span(obs.Span{Kind: obs.SpanHarvest, Reason: reason,
		Start: ob.Time, End: ob.Time, Value: float64(s.balancer.lastAmount)})
}
