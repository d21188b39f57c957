package telemetry

import (
	"fmt"
	"strings"

	"umanycore/internal/obs"
	"umanycore/internal/sim"
	"umanycore/internal/stats"
)

// RuleKind selects how a watchdog rule computes its windowed value.
type RuleKind uint8

// Rule kinds.
const (
	// RuleP99 evaluates the window's end-to-end latency P99 in
	// microseconds (from the per-window sketch) against Threshold.
	RuleP99 RuleKind = iota
	// RuleBurnRate evaluates SLO error-budget burn: the fraction of the
	// window's requests slower than SLOMicros, divided by Budget (the
	// allowed violation fraction). A value above 1 means the budget burns
	// faster than it accrues; Threshold is typically 1.
	RuleBurnRate
	// RuleGaugeCeiling evaluates an instrument's current level against
	// Threshold: a gauge's value, or a time-weighted histogram's windowed
	// mean (e.g. machine.queue.depth).
	RuleGaugeCeiling
	// RuleRateRatio evaluates delta(Num)/delta(Den) over the window against
	// Threshold — e.g. the admission-reject rate. Den may be a
	// comma-separated list of counters whose deltas sum.
	RuleRateRatio
)

func (k RuleKind) String() string {
	switch k {
	case RuleP99:
		return "p99"
	case RuleBurnRate:
		return "burn-rate"
	case RuleGaugeCeiling:
		return "gauge-ceiling"
	case RuleRateRatio:
		return "rate-ratio"
	default:
		return "rule?"
	}
}

// Rule is one windowed SLO condition, evaluated at every sampler tick. A
// rule fires an Alert when its value first exceeds Threshold and resolves
// when it first returns to or below it.
type Rule struct {
	// Name labels the rule in alerts (e.g. "slo.p99").
	Name string
	// Kind selects the evaluation.
	Kind RuleKind
	// Metric is the instrument for RuleGaugeCeiling and the numerator
	// counter for RuleRateRatio.
	Metric string
	// Den is the denominator counter (or comma-separated counters) for
	// RuleRateRatio.
	Den string
	// SLOMicros is the per-request latency objective for RuleBurnRate.
	SLOMicros float64
	// Budget is the allowed violation fraction for RuleBurnRate (e.g. 0.01
	// = 1% of requests may exceed SLOMicros).
	Budget float64
	// Threshold is the firing level: the rule fires while value > Threshold.
	Threshold float64
}

// DefaultRules returns the paper-shaped watchdog for a P99 objective of
// p99TargetMicros: the windowed P99 itself, a 1%-budget burn rate against
// the same objective, a queue-depth ceiling, and an admission-reject rate
// ceiling.
func DefaultRules(p99TargetMicros float64) []Rule {
	return []Rule{
		{Name: "slo.p99", Kind: RuleP99, Threshold: p99TargetMicros},
		{Name: "slo.burn", Kind: RuleBurnRate, SLOMicros: p99TargetMicros, Budget: 0.01, Threshold: 1},
		{Name: "slo.queue-depth", Kind: RuleGaugeCeiling, Metric: "machine.queue.depth", Threshold: 64},
		{Name: "slo.reject-rate", Kind: RuleRateRatio,
			Metric:    "machine.admit.reject",
			Den:       "machine.admit.rq,machine.admit.nicbuf,machine.admit.swq,machine.admit.reject",
			Threshold: 0.001},
	}
}

// Alert is one watchdog transition, stamped with the virtual tick time.
type Alert struct {
	// Rule is the rule's Name.
	Rule string
	// At is the evaluation tick (virtual time).
	At sim.Time
	// Value is the windowed value that crossed the threshold.
	Value float64
	// Threshold is the rule's firing level.
	Threshold float64
	// Firing is true for a fire transition, false for a resolve.
	Firing bool
	// Source is the contributing run's index after Merge (0 for a single
	// run).
	Source int
}

func (a Alert) String() string {
	state := "FIRING"
	if !a.Firing {
		state = "resolved"
	}
	return fmt.Sprintf("%v %-16s %-8s value=%.4g threshold=%.4g", a.At, a.Rule, state, a.Value, a.Threshold)
}

// ruleState is one rule's compiled evaluator plus its firing state.
type ruleState struct {
	rule     Rule
	firing   bool
	resolved bool
	// num/den are the resolved counters for RuleRateRatio.
	num     *obs.Counter
	den     []*obs.Counter
	lastNum float64
	lastDen float64
	// gauge/hist are the resolved instrument for RuleGaugeCeiling.
	gauge        *obs.Gauge
	hist         *obs.TimeHist
	lastIntegral float64
}

// watchdog evaluates rules at every tick and accumulates alerts.
type watchdog struct {
	reg    *obs.Registry
	states []*ruleState
	alerts []Alert
	// onAlert, when set, receives each transition as it is recorded (the
	// Options.OnAlert subscription).
	onAlert func(Alert)
}

func newWatchdog(reg *obs.Registry, rules []Rule, onAlert func(Alert)) *watchdog {
	w := &watchdog{reg: reg, onAlert: onAlert}
	for _, r := range rules {
		w.states = append(w.states, &ruleState{rule: r})
	}
	return w
}

// resolve binds a rule to its instruments without creating them (a
// watchdog must not grow the registry). Most instruments exist before the
// first tick (EnableObs resolves the hot-path set), but a lazily created
// one binds on the first tick after it appears.
func (st *ruleState) resolve(reg *obs.Registry) bool {
	if st.resolved {
		return true
	}
	r := st.rule
	switch r.Kind {
	case RuleRateRatio:
		num, ok := reg.LookupCounter(r.Metric)
		if !ok {
			return false
		}
		var den []*obs.Counter
		for _, d := range strings.Split(r.Den, ",") {
			if d = strings.TrimSpace(d); d != "" {
				c, ok := reg.LookupCounter(d)
				if !ok {
					return false
				}
				den = append(den, c)
			}
		}
		st.num, st.den, st.resolved = num, den, true
	case RuleGaugeCeiling:
		if h, ok := reg.LookupTimeHist(r.Metric); ok {
			st.hist, st.resolved = h, true
		} else if g, ok := reg.LookupGauge(r.Metric); ok {
			st.gauge, st.resolved = g, true
		} else {
			return false
		}
	default:
		st.resolved = true
	}
	return st.resolved
}

// eval computes one rule's windowed value at tick time now. ok reports
// whether the window produced an evaluable value (latency rules skip empty
// windows, keeping their firing state).
func (st *ruleState) eval(reg *obs.Registry, now sim.Time, window sim.Time, win *stats.Sketch) (value float64, ok bool) {
	r := st.rule
	switch r.Kind {
	case RuleP99:
		if win.N() == 0 {
			return 0, false
		}
		return win.Quantile(0.99), true
	case RuleBurnRate:
		if win.N() == 0 || r.Budget <= 0 {
			return 0, false
		}
		return win.FracAbove(r.SLOMicros) / r.Budget, true
	case RuleGaugeCeiling:
		if !st.resolve(reg) {
			return 0, false
		}
		if st.hist != nil {
			integral := st.hist.Integral(now)
			mean := (integral - st.lastIntegral) / float64(window)
			st.lastIntegral = integral
			return mean, true
		}
		return st.gauge.Value(), true
	case RuleRateRatio:
		if !st.resolve(reg) {
			return 0, false
		}
		num := st.num.Value()
		var den float64
		for _, d := range st.den {
			den += d.Value()
		}
		dNum, dDen := num-st.lastNum, den-st.lastDen
		st.lastNum, st.lastDen = num, den
		if dDen <= 0 {
			return 0, false
		}
		return dNum / dDen, true
	}
	return 0, false
}

// tick evaluates every rule at virtual time now over the window that just
// closed, appending fire/resolve alerts on state transitions (and invoking
// the OnAlert subscription, when installed, for each one).
func (w *watchdog) tick(now sim.Time, window sim.Time, win *stats.Sketch) {
	for _, st := range w.states {
		v, ok := st.eval(w.reg, now, window, win)
		if !ok {
			continue
		}
		if firing := v > st.rule.Threshold; firing != st.firing {
			st.firing = firing
			a := Alert{Rule: st.rule.Name, At: now, Value: v, Threshold: st.rule.Threshold, Firing: firing}
			w.alerts = append(w.alerts, a)
			if w.onAlert != nil {
				w.onAlert(a)
			}
		}
	}
}
