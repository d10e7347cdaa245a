package eval

import (
	"fmt"
	"runtime"
	"sort"
	"strings"

	"repro/internal/trajectory"
)

// PointSchema is the current Point layout version.
const PointSchema = 1

// Trajectory is the accuracy history: ACCURACY_<n>.json points that
// caai-eval writes.
var Trajectory = trajectory.Kind{
	Prefix: "ACCURACY", Schema: PointSchema, Noun: "accuracy", Violation: "ACCURACY",
	Source: func(s string) bool { return s == "caai-eval" },
}

// ScenarioInfo records one scenario's identity inside a Point, with its
// condition rendered as text (the structured knobs live in code; the file
// is a trajectory record, not a config format).
type ScenarioInfo struct {
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`
	Condition   string `json:"condition"`
}

// Summary is the headline view of a Point: what the service's /metrics
// endpoint exposes and what humans read first.
type Summary struct {
	// Label is the point's free-form provenance label.
	Label string `json:"label,omitempty"`
	// Scale describes the workload ("trials-12").
	Scale string `json:"scale,omitempty"`
	// OverallAccuracy is correct / trials over the whole matrix.
	OverallAccuracy float64 `json:"overall_accuracy"`
	// ScenarioAccuracy maps scenario name to its aggregate accuracy.
	ScenarioAccuracy map[string]float64 `json:"scenario_accuracy"`
	// WorstCell names the lowest-accuracy cell and its accuracy.
	WorstCell         string  `json:"worst_cell,omitempty"`
	WorstCellAccuracy float64 `json:"worst_cell_accuracy"`
	// Algorithms, Scenarios, Budgets, Cells and TrialsPerCell record the
	// matrix dimensions.
	Algorithms    int `json:"algorithms"`
	Scenarios     int `json:"scenarios"`
	Budgets       int `json:"budgets"`
	Cells         int `json:"cells"`
	TrialsPerCell int `json:"trials_per_cell"`
}

// Point is one trajectory point of the accuracy history (one
// ACCURACY_<n>.json), the evaluation counterpart of bench.Point.
type Point struct {
	// Schema versions the file layout.
	Schema int `json:"schema"`
	// Label is free-form provenance (a commit, "pre-change baseline", ...).
	Label string `json:"label,omitempty"`
	// Source records how the numbers were gathered ("caai-eval").
	Source string `json:"source"`
	// GoVersion/GOOS/GOARCH identify the toolchain; accuracy is
	// deterministic per (model, config, toolchain).
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	// Scale describes the workload scale ("trials-12").
	Scale string `json:"scale"`
	// Seed is the matrix seed the run used.
	Seed int64 `json:"seed"`
	// Model describes the classifier that answered ("randomforest", plus
	// provenance when loaded from a file).
	Model string `json:"model,omitempty"`

	// Algorithms, Budgets and Scenarios record the matrix axes.
	Algorithms []string       `json:"algorithms"`
	Budgets    []string       `json:"budgets"`
	Scenarios  []ScenarioInfo `json:"scenarios"`

	// Summary is the headline view (also served by /metrics).
	Summary Summary `json:"summary"`
	// Cells are the per-(algorithm, scenario, budget) outcomes.
	Cells []Cell `json:"cells"`
	// ScenarioStats aggregates accuracy, outcome mix, and feature drift
	// per scenario.
	ScenarioStats map[string]*ScenarioStats `json:"scenario_stats"`
	// Confusion maps scenario (plus "overall") to truth -> reported
	// counts over valid, non-special trials.
	Confusion map[string]Confusion `json:"confusion"`
}

// NewPoint renders a finished matrix as a trajectory point with
// toolchain provenance.
func NewPoint(label, model string, seed int64, m *Matrix) Point {
	p := Point{
		Schema:        PointSchema,
		Label:         label,
		Source:        "caai-eval",
		GoVersion:     runtime.Version(),
		GOOS:          runtime.GOOS,
		GOARCH:        runtime.GOARCH,
		Scale:         fmt.Sprintf("trials-%d", m.Trials),
		Seed:          seed,
		Model:         model,
		Algorithms:    m.Algorithms,
		Budgets:       m.Budgets,
		Cells:         m.Cells,
		ScenarioStats: m.ByScenario,
		Confusion:     m.ConfusionByScenario,
	}
	for _, sc := range m.Scenarios {
		p.Scenarios = append(p.Scenarios, ScenarioInfo{
			Name:        sc.Name,
			Description: sc.Description,
			Condition:   sc.Cond.String(),
		})
	}
	p.Summary = Summary{
		Label:             label,
		Scale:             p.Scale,
		OverallAccuracy:   m.Accuracy(),
		ScenarioAccuracy:  map[string]float64{},
		Algorithms:        len(m.Algorithms),
		Scenarios:         len(m.Scenarios),
		Budgets:           len(m.Budgets),
		Cells:             len(m.Cells),
		TrialsPerCell:     m.Trials,
		WorstCellAccuracy: 1,
	}
	for name, s := range m.ByScenario {
		p.Summary.ScenarioAccuracy[name] = s.Accuracy
	}
	for _, c := range m.Cells {
		if c.Accuracy < p.Summary.WorstCellAccuracy || p.Summary.WorstCell == "" {
			p.Summary.WorstCell = c.Key()
			p.Summary.WorstCellAccuracy = c.Accuracy
		}
	}
	return p
}

// Compare renders a before/after per-scenario accuracy delta table (the
// PR-description workflow, mirroring bench.Compare).
func Compare(before, after Point) string {
	names := make([]string, 0, len(after.Summary.ScenarioAccuracy))
	for name := range after.Summary.ScenarioAccuracy {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s %10s %10s %8s\n", "scenario", "before", "after", "delta")
	for _, name := range names {
		ba, ok := before.Summary.ScenarioAccuracy[name]
		if !ok {
			continue
		}
		aa := after.Summary.ScenarioAccuracy[name]
		fmt.Fprintf(&b, "%-16s %9.1f%% %9.1f%% %+7.1f%%\n", name, ba*100, aa*100, (aa-ba)*100)
	}
	fmt.Fprintf(&b, "%-16s %9.1f%% %9.1f%% %+7.1f%%\n", "overall",
		before.Summary.OverallAccuracy*100, after.Summary.OverallAccuracy*100,
		(after.Summary.OverallAccuracy-before.Summary.OverallAccuracy)*100)
	return b.String()
}
