// Package eval is the accuracy counterpart of internal/bench: a
// scenario-matrix evaluation subsystem that sweeps {registered CC
// algorithms} x {netem scenarios: clean, random loss, reordering, jitter,
// duplication, Gilbert–Elliott burst loss, bursty cross-traffic} x
// {probing budgets}, runs every cell through the real engine worker-pool
// identification path, and aggregates per-cell accuracy, per-scenario
// confusion matrices, and feature-drift statistics. Results persist as
// ACCURACY_<n>.json trajectory points (mirroring BENCH_<n>.json), and a
// checked-in accuracy_budget.json turns the trajectory into an enforced
// contract: a scenario cell regressing below budget fails the run.
package eval

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/feature"
	"repro/internal/netem"
	"repro/internal/trace"
	"repro/internal/websim"
)

// Config controls one matrix run.
type Config struct {
	// Algorithms are the ground-truth algorithms to probe; default
	// cc.CAAINames() (all 14 identifier targets).
	Algorithms []string
	// Scenarios are the netem conditions to sweep; default
	// DefaultScenarios(). The first scenario is the feature-drift
	// reference.
	Scenarios []Scenario
	// Budgets are the probing budgets to sweep; default DefaultBudgets().
	Budgets []ProbeBudget
	// Trials is how many seeded identifications each cell runs;
	// default 20.
	Trials int
	// Seed derives every trial's RNG deterministically: a matrix is a
	// pure function of (model, Config), independent of Parallelism.
	Seed int64
	// Parallelism bounds concurrent probes on the worker pool;
	// 0 = GOMAXPROCS.
	Parallelism int
}

func (c Config) withDefaults() Config {
	if len(c.Algorithms) == 0 {
		c.Algorithms = cc.CAAINames()
	}
	if len(c.Scenarios) == 0 {
		c.Scenarios = DefaultScenarios()
	}
	if len(c.Budgets) == 0 {
		c.Budgets = DefaultBudgets()
	}
	if c.Trials <= 0 {
		c.Trials = 20
	}
	return c
}

// Cell is one (algorithm, scenario, budget) point of the matrix. A trial
// counts as Correct only when the pipeline produced a valid, non-special
// trace whose label matches core.TrainingLabel(algorithm, wmax) — unsure,
// special, and invalid outcomes all count against accuracy, because a
// production identification pipeline delivers none of them.
type Cell struct {
	Algorithm string  `json:"algorithm"`
	Scenario  string  `json:"scenario"`
	Budget    string  `json:"budget"`
	Trials    int     `json:"trials"`
	Correct   int     `json:"correct"`
	Wrong     int     `json:"wrong"`
	Unsure    int     `json:"unsure"`
	Special   int     `json:"special"`
	Invalid   int     `json:"invalid"`
	Accuracy  float64 `json:"accuracy"`
}

// Key renders the budget-file cell address.
func (c Cell) Key() string { return c.Algorithm + "|" + c.Scenario + "|" + c.Budget }

// ScenarioStats aggregates one scenario across all algorithms and budgets:
// its accuracy, its outcome mix, and the feature-distribution statistics
// that make silent drift visible (the classifier can stay "confident"
// while its inputs walk out of the training distribution).
type ScenarioStats struct {
	Trials   int     `json:"trials"`
	Correct  int     `json:"correct"`
	Wrong    int     `json:"wrong"`
	Unsure   int     `json:"unsure"`
	Special  int     `json:"special"`
	Invalid  int     `json:"invalid"`
	Accuracy float64 `json:"accuracy"`

	// Vectors counts the valid, non-special feature vectors behind the
	// moments below.
	Vectors int `json:"vectors"`
	// FeatureMean and FeatureStdDev are the per-feature moments of the
	// extracted vectors under this scenario.
	FeatureMean   []float64 `json:"feature_mean,omitempty"`
	FeatureStdDev []float64 `json:"feature_stddev,omitempty"`
	// Drift is the mean absolute deviation of this scenario's feature
	// means from the reference (first) scenario's, normalized per feature
	// by the pooled standard deviation across all scenarios. 0 for the
	// reference itself; large values mean the classifier is being fed
	// vectors unlike anything it saw in training.
	Drift float64 `json:"drift_from_reference"`
}

// Confusion maps ground-truth training label -> reported label -> count
// over valid, non-special trials (reported includes UNSURE).
type Confusion map[string]map[string]int

// add tallies one classification outcome.
func (m Confusion) add(truth, got string) {
	row := m[truth]
	if row == nil {
		row = map[string]int{}
		m[truth] = row
	}
	row[got]++
}

// Matrix is the aggregated outcome of one Run.
type Matrix struct {
	// Algorithms, Scenarios, Budgets, Trials echo the resolved config.
	Algorithms []string
	Scenarios  []Scenario
	Budgets    []string
	Trials     int
	// Cells holds every (algorithm, scenario, budget) cell, in
	// deterministic budget-major, scenario, algorithm order.
	Cells []Cell
	// ByScenario aggregates accuracy and feature drift per scenario.
	ByScenario map[string]*ScenarioStats
	// ConfusionByScenario maps scenario -> confusion matrix; the "overall"
	// key aggregates every scenario.
	ConfusionByScenario map[string]Confusion
}

// OverallKey is the ConfusionByScenario key aggregating all scenarios.
const OverallKey = "overall"

// Accuracy returns the whole-matrix accuracy (correct / trials).
func (m *Matrix) Accuracy() float64 {
	correct, trials := 0, 0
	for _, c := range m.Cells {
		correct += c.Correct
		trials += c.Trials
	}
	if trials == 0 {
		return 0
	}
	return float64(correct) / float64(trials)
}

// Cell returns the named cell, or nil.
func (m *Matrix) Cell(algorithm, scenario, budget string) *Cell {
	for i := range m.Cells {
		c := &m.Cells[i]
		if c.Algorithm == algorithm && c.Scenario == scenario && c.Budget == budget {
			return c
		}
	}
	return nil
}

// trialSeedStride spaces per-trial seeds (a prime, like the strides used
// elsewhere in the pipeline).
const trialSeedStride = 6700417

// Run sweeps the full matrix on the engine worker pool, grading each
// budget with the identifier modelFor returns for it -- a model trained
// at that budget, since accuracy follows the training paths. Every
// (algorithm, scenario, budget, trial) tuple is one pool job with its own
// deterministically derived RNG, probing a cooperative testbed server
// through the scenario's netem condition with the budget's prober — the
// same session pipeline the service and census use. Each budget sweeps as
// one core.Identifier.IdentifyEach, whose pool workers each reuse one
// session. Outcomes are a pure function of (models, cfg), independent of
// parallelism and worker scheduling.
func Run(modelFor func(ProbeBudget) *core.Identifier, cfg Config) *Matrix {
	cfg = cfg.withDefaults()
	type cellDef struct {
		alg    string
		scen   int
		budget int
	}
	var defs []cellDef
	for b := range cfg.Budgets {
		for s := range cfg.Scenarios {
			for _, alg := range cfg.Algorithms {
				defs = append(defs, cellDef{alg: alg, scen: s, budget: b})
			}
		}
	}
	// The probe budget and the model vary only along the budget axis, so
	// the matrix runs as one fan-out per budget (defs are budget-major).
	perBudget := len(cfg.Scenarios) * len(cfg.Algorithms) * cfg.Trials
	outs := make([]core.Identification, 0, len(defs)*cfg.Trials)
	for b := range cfg.Budgets {
		base := b * perBudget
		outs = append(outs, modelFor(cfg.Budgets[b]).IdentifyEach(perBudget, cfg.Parallelism, cfg.Budgets[b].Probe,
			func(k int) (*websim.Server, netem.Condition, int64) {
				j := base + k
				d := defs[j/cfg.Trials]
				return websim.Testbed(d.alg), cfg.Scenarios[d.scen].Cond, cfg.Seed + int64(j+1)*trialSeedStride
			})...)
	}

	m := &Matrix{
		Algorithms:          cfg.Algorithms,
		Scenarios:           cfg.Scenarios,
		Budgets:             make([]string, len(cfg.Budgets)),
		Trials:              cfg.Trials,
		ByScenario:          map[string]*ScenarioStats{},
		ConfusionByScenario: map[string]Confusion{OverallKey: Confusion{}},
	}
	for i, b := range cfg.Budgets {
		m.Budgets[i] = b.Name
	}
	for _, sc := range cfg.Scenarios {
		m.ByScenario[sc.Name] = &ScenarioStats{}
		m.ConfusionByScenario[sc.Name] = Confusion{}
	}

	// Per-scenario feature moments, accumulated over valid non-special
	// vectors.
	type moments struct {
		n          int
		sum, sumSq [feature.NumFeatures]float64
	}
	perScenario := map[string]*moments{}

	for ci, d := range defs {
		scen := cfg.Scenarios[d.scen]
		cell := Cell{
			Algorithm: d.alg,
			Scenario:  scen.Name,
			Budget:    cfg.Budgets[d.budget].Name,
			Trials:    cfg.Trials,
		}
		stats := m.ByScenario[scen.Name]
		mom := perScenario[scen.Name]
		if mom == nil {
			mom = &moments{}
			perScenario[scen.Name] = mom
		}
		for t := 0; t < cfg.Trials; t++ {
			out := outs[ci*cfg.Trials+t]
			switch {
			case !out.Valid:
				cell.Invalid++
			case out.Special != trace.SpecialNone:
				cell.Special++
			default:
				truth := core.TrainingLabel(d.alg, out.Wmax)
				m.ConfusionByScenario[scen.Name].add(truth, out.Label)
				m.ConfusionByScenario[OverallKey].add(truth, out.Label)
				mom.n++
				for f, v := range out.Vector {
					mom.sum[f] += v
					mom.sumSq[f] += v * v
				}
				switch {
				case out.Label == core.LabelUnsure:
					cell.Unsure++
				case out.Label == truth:
					cell.Correct++
				default:
					cell.Wrong++
				}
			}
		}
		cell.Accuracy = float64(cell.Correct) / float64(cell.Trials)
		m.Cells = append(m.Cells, cell)
		stats.Trials += cell.Trials
		stats.Correct += cell.Correct
		stats.Wrong += cell.Wrong
		stats.Unsure += cell.Unsure
		stats.Special += cell.Special
		stats.Invalid += cell.Invalid
	}

	// Finalize per-scenario stats: accuracy, moments, and drift from the
	// reference (first) scenario, normalized by the pooled per-feature
	// standard deviation so every feature contributes on a common scale.
	// The pool sums in scenario order, not map order, so the floats (and
	// the written point) are the same on every run.
	var pooled moments
	for _, sc := range cfg.Scenarios {
		mom := perScenario[sc.Name]
		if mom == nil {
			continue
		}
		pooled.n += mom.n
		for f := 0; f < feature.NumFeatures; f++ {
			pooled.sum[f] += mom.sum[f]
			pooled.sumSq[f] += mom.sumSq[f]
		}
	}
	var poolStd [feature.NumFeatures]float64
	if pooled.n > 0 {
		for f := 0; f < feature.NumFeatures; f++ {
			mean := pooled.sum[f] / float64(pooled.n)
			poolStd[f] = math.Sqrt(math.Max(0, pooled.sumSq[f]/float64(pooled.n)-mean*mean))
		}
	}
	refName := cfg.Scenarios[0].Name
	refMom := perScenario[refName]
	for name, stats := range m.ByScenario {
		if stats.Trials > 0 {
			stats.Accuracy = float64(stats.Correct) / float64(stats.Trials)
		}
		mom := perScenario[name]
		if mom == nil || mom.n == 0 {
			continue
		}
		stats.Vectors = mom.n
		stats.FeatureMean = make([]float64, feature.NumFeatures)
		stats.FeatureStdDev = make([]float64, feature.NumFeatures)
		for f := 0; f < feature.NumFeatures; f++ {
			mean := mom.sum[f] / float64(mom.n)
			stats.FeatureMean[f] = mean
			stats.FeatureStdDev[f] = math.Sqrt(math.Max(0, mom.sumSq[f]/float64(mom.n)-mean*mean))
		}
		if refMom != nil && refMom.n > 0 {
			drift := 0.0
			for f := 0; f < feature.NumFeatures; f++ {
				refMean := refMom.sum[f] / float64(refMom.n)
				if poolStd[f] > 1e-12 {
					drift += math.Abs(stats.FeatureMean[f]-refMean) / poolStd[f]
				}
			}
			stats.Drift = drift / feature.NumFeatures
		}
	}
	return m
}

// Table renders the matrix as one accuracy grid per budget: rows are
// algorithms, columns scenarios, cells percent-correct.
func (m *Matrix) Table() string {
	var b strings.Builder
	for _, budget := range m.Budgets {
		fmt.Fprintf(&b, "budget %s (%d trials per cell)\n", budget, m.Trials)
		fmt.Fprintf(&b, "%-12s", "alg \\ scen")
		for _, sc := range m.Scenarios {
			fmt.Fprintf(&b, "%14s", sc.Name)
		}
		b.WriteString("\n")
		for _, alg := range m.Algorithms {
			fmt.Fprintf(&b, "%-12s", alg)
			for _, sc := range m.Scenarios {
				if c := m.Cell(alg, sc.Name, budget); c != nil {
					fmt.Fprintf(&b, "%13.1f%%", c.Accuracy*100)
				} else {
					fmt.Fprintf(&b, "%14s", "-")
				}
			}
			b.WriteString("\n")
		}
	}
	names := make([]string, 0, len(m.ByScenario))
	for name := range m.ByScenario {
		names = append(names, name)
	}
	sort.Strings(names)
	b.WriteString("scenario summary (all budgets):\n")
	for _, name := range names {
		s := m.ByScenario[name]
		fmt.Fprintf(&b, "  %-14s accuracy %5.1f%%  unsure %3d  special %3d  invalid %3d  drift %.2f\n",
			name, s.Accuracy*100, s.Unsure, s.Special, s.Invalid, s.Drift)
	}
	fmt.Fprintf(&b, "overall accuracy: %.2f%%\n", m.Accuracy()*100)
	return b.String()
}
