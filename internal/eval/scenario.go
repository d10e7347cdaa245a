package eval

import (
	"reflect"
	"time"

	"repro/internal/netem"
	"repro/internal/probe"
)

// Scenario is one named netem operating condition of the evaluation
// matrix. The paper trains and evaluates across conditions drawn from its
// measured distributions; the matrix instead pins a handful of named,
// reproducible points spanning the hostile end of that space, so a
// regression in any one of them has a stable address a budget can gate.
type Scenario struct {
	// Name is the stable scenario key used in cells, budgets, and files.
	Name string
	// Description says what the scenario stresses.
	Description string
	// Cond is the emulated path the scenario probes through.
	Cond netem.Condition
}

// nominalRTT is the recorded mean path RTT of every default scenario. The
// round-driven emulation paces rounds on the environment schedules, so the
// mean path RTT is bookkeeping; RTTStdDev, loss, reordering, duplication
// and burst state are what perturb the gathered traces.
const nominalRTT = 100 * time.Millisecond

// DefaultScenarios returns the standard evaluation matrix: the near-clean
// baseline, a random-loss sweep, reordering, heavy RTT jitter,
// duplication, Gilbert–Elliott burst loss, and bursty cross-traffic.
// The first scenario is the drift reference (see Matrix.ByScenario).
func DefaultScenarios() []Scenario {
	return []Scenario{
		{
			Name:        "clean",
			Description: "near-ideal path: 2 ms RTT jitter, no loss",
			Cond:        netem.Condition{MeanRTT: nominalRTT, RTTStdDev: 2 * time.Millisecond},
		},
		{
			Name:        "loss_1",
			Description: "1% random packet loss (data and ACK)",
			Cond:        netem.Condition{MeanRTT: nominalRTT, RTTStdDev: 2 * time.Millisecond, LossRate: 0.01},
		},
		{
			Name:        "loss_3",
			Description: "3% random packet loss",
			Cond:        netem.Condition{MeanRTT: nominalRTT, RTTStdDev: 2 * time.Millisecond, LossRate: 0.03},
		},
		{
			Name:        "loss_5",
			Description: "5% random packet loss",
			Cond:        netem.Condition{MeanRTT: nominalRTT, RTTStdDev: 2 * time.Millisecond, LossRate: 0.05},
		},
		{
			Name:        "reorder",
			Description: "15% adjacent data reordering, light jitter",
			Cond:        netem.Condition{MeanRTT: nominalRTT, RTTStdDev: 5 * time.Millisecond, ReorderRate: 0.15},
		},
		{
			Name:        "jitter",
			Description: "heavy RTT variation (40 ms standard deviation)",
			Cond:        netem.Condition{MeanRTT: nominalRTT, RTTStdDev: 40 * time.Millisecond},
		},
		{
			Name:        "duplicate",
			Description: "5% data-packet duplication",
			Cond:        netem.Condition{MeanRTT: nominalRTT, RTTStdDev: 2 * time.Millisecond, DupRate: 0.05},
		},
		{
			Name:        "burst_loss",
			Description: "Gilbert–Elliott burst loss: 30% in the bad state, mean burst ~2.5 packets",
			Cond: netem.Condition{
				MeanRTT: nominalRTT, RTTStdDev: 2 * time.Millisecond,
				GEPGoodBad: 0.05, GEPBadGood: 0.40, GEGoodLoss: 0.002, GEBadLoss: 0.30,
			},
		},
		{
			Name:        "cross_traffic",
			Description: "bursty competing traffic: 30 ms jitter plus queue-overflow loss bursts",
			Cond: netem.Condition{
				MeanRTT: nominalRTT, RTTStdDev: 30 * time.Millisecond,
				GEPGoodBad: 0.02, GEPBadGood: 0.50, GEBadLoss: 0.20,
			},
		},
	}
}

// ProbeBudget is one probing-effort point of the matrix: a named
// probe.Config. The paper's prober retries a four-step wmax ladder with up
// to 40 pre-timeout rounds; a deployment that probes millions of servers
// wants to know what a leaner budget costs in accuracy. Each budget is
// graded with a model trained at it (see Run).
type ProbeBudget struct {
	// Name is the stable budget key used in cells and budgets.
	Name string
	// Probe is the prober configuration of this budget (zero fields
	// resolve to the served lean budget).
	Probe probe.Config
}

// DefaultBudgets returns the two standard probing budgets: the paper's
// full ladder and the lean budget the zero probe.Config resolves to,
// which skips wmax 512 and caps rounds and pipelined requests.
func DefaultBudgets() []ProbeBudget {
	return []ProbeBudget{
		{Name: "paper", Probe: probe.Paper},
		{Name: "lean", Probe: probe.Config{}},
	}
}

// BudgetOf names a model's probe budget: the default budget it resolves
// to, or "model" when it matches none.
func BudgetOf(cfg probe.Config) ProbeBudget {
	for _, b := range DefaultBudgets() {
		if reflect.DeepEqual(b.Probe.Resolved(), cfg.Resolved()) {
			return b
		}
	}
	return ProbeBudget{Name: "model", Probe: cfg}
}
