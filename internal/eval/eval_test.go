package eval

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/probe"
	"repro/internal/trajectory"
)

// stub is a fixed-answer classifier: it makes matrix accounting exact
// without training a model.
type stub struct {
	label string
	conf  float64
}

func (s stub) Name() string                         { return "stub" }
func (s stub) Classify([]float64) (string, float64) { return s.label, s.conf }

// fixed grades every budget with id.
func fixed(id *core.Identifier) func(ProbeBudget) *core.Identifier {
	return func(ProbeBudget) *core.Identifier { return id }
}

// smallConfig is a two-algorithm, two-scenario, one-budget matrix that
// still exercises the impaired netem path (burst loss).
func smallConfig() Config {
	scens := DefaultScenarios()
	var clean, burst Scenario
	for _, sc := range scens {
		switch sc.Name {
		case "clean":
			clean = sc
		case "burst_loss":
			burst = sc
		}
	}
	return Config{
		Algorithms: []string{"CUBIC2", "RENO"},
		Scenarios:  []Scenario{clean, burst},
		Budgets:    []ProbeBudget{{Name: "paper", Probe: probe.Paper}},
		Trials:     3,
		Seed:       42,
	}
}

func TestRunDeterministicAcrossParallelism(t *testing.T) {
	id := core.NewIdentifierAt(stub{label: "CUBIC2", conf: 1}, probe.Paper)
	cfg := smallConfig()
	m1 := Run(fixed(id), cfg)
	cfg.Parallelism = 1
	m2 := Run(fixed(id), cfg)
	if !reflect.DeepEqual(m1.Cells, m2.Cells) {
		t.Fatalf("cells differ across parallelism:\n%+v\nvs\n%+v", m1.Cells, m2.Cells)
	}
	if !reflect.DeepEqual(m1.ByScenario, m2.ByScenario) {
		t.Fatal("scenario stats differ across parallelism")
	}
	if !reflect.DeepEqual(m1.ConfusionByScenario, m2.ConfusionByScenario) {
		t.Fatal("confusion differs across parallelism")
	}
}

// TestRunDriftIsRepeatable: the per-scenario drift pools feature moments
// across scenarios; summed in map order, the floats differed in their last
// bits from run to run once there were three or more scenarios, so the
// written ACCURACY point was not byte-stable.
func TestRunDriftIsRepeatable(t *testing.T) {
	id := core.NewIdentifierAt(stub{label: "CUBIC2", conf: 1}, probe.Paper)
	cfg := Config{
		Algorithms: []string{"CUBIC2", "RENO", "HSTCP"},
		Scenarios:  DefaultScenarios(),
		Budgets:    []ProbeBudget{{Name: "paper", Probe: probe.Paper}},
		Trials:     2,
		Seed:       42,
	}
	want := Run(fixed(id), cfg).ByScenario
	for i := 0; i < 8; i++ {
		got := Run(fixed(id), cfg).ByScenario
		for name, ws := range want {
			if gs := got[name]; gs.Drift != ws.Drift {
				t.Fatalf("run %d: scenario %s drift %v, first run %v", i+1, name, gs.Drift, ws.Drift)
			}
		}
	}
}

func TestRunAccountsOutcomes(t *testing.T) {
	id := core.NewIdentifierAt(stub{label: "CUBIC2", conf: 1}, probe.Paper)
	m := Run(fixed(id), smallConfig())
	if len(m.Cells) != 4 {
		t.Fatalf("want 4 cells, got %d", len(m.Cells))
	}
	clean := m.Cell("CUBIC2", "clean", "paper")
	if clean == nil || clean.Correct != clean.Trials || clean.Accuracy != 1 {
		t.Fatalf("CUBIC2/clean should be fully correct under the always-CUBIC2 stub: %+v", clean)
	}
	reno := m.Cell("RENO", "clean", "paper")
	if reno == nil || reno.Correct != 0 || reno.Wrong != reno.Trials {
		t.Fatalf("RENO/clean should be fully wrong under the always-CUBIC2 stub: %+v", reno)
	}
	// Confusion rows: truth labels follow TrainingLabel at the settled
	// wmax; every classified trial reports CUBIC2.
	overall := m.ConfusionByScenario[OverallKey]
	for truth, row := range overall {
		for got := range row {
			if got != "CUBIC2" {
				t.Fatalf("confusion row %s contains label %s, stub only answers CUBIC2", truth, got)
			}
		}
	}
	if m.Accuracy() <= 0 || m.Accuracy() >= 1 {
		t.Fatalf("mixed matrix accuracy should be strictly between 0 and 1: %v", m.Accuracy())
	}
	// Scenario stats cover both scenarios, and feature moments exist for
	// cells that classified anything.
	for _, name := range []string{"clean", "burst_loss"} {
		s := m.ByScenario[name]
		if s == nil || s.Trials != 6 {
			t.Fatalf("scenario %s stats missing or wrong trial count: %+v", name, s)
		}
		if s.Vectors > 0 && len(s.FeatureMean) == 0 {
			t.Fatalf("scenario %s classified %d vectors but has no feature means", name, s.Vectors)
		}
	}
	if m.ByScenario["clean"].Drift != 0 {
		t.Fatalf("reference scenario drift must be 0, got %v", m.ByScenario["clean"].Drift)
	}
}

func TestRunCountsUnsure(t *testing.T) {
	id := core.NewIdentifierAt(stub{label: "CUBIC2", conf: 0.2}, probe.Paper) // below the 40% rule
	m := Run(fixed(id), smallConfig())
	for _, c := range m.Cells {
		if c.Correct != 0 {
			t.Fatalf("nothing should be correct at 20%% confidence: %+v", c)
		}
		if c.Scenario == "clean" && c.Unsure != c.Trials {
			t.Fatalf("clean cells should be all-unsure: %+v", c)
		}
	}
}

func TestTableRenders(t *testing.T) {
	id := core.NewIdentifierAt(stub{label: "CUBIC2", conf: 1}, probe.Paper)
	m := Run(fixed(id), smallConfig())
	table := m.Table()
	for _, want := range []string{"CUBIC2", "RENO", "clean", "burst_loss", "overall accuracy"} {
		if !strings.Contains(table, want) {
			t.Fatalf("table missing %q:\n%s", want, table)
		}
	}
}

func TestPointRoundTripAndHistory(t *testing.T) {
	id := core.NewIdentifierAt(stub{label: "CUBIC2", conf: 1}, probe.Paper)
	m := Run(fixed(id), smallConfig())
	p := NewPoint("test", "stub", 42, m)
	if p.Summary.OverallAccuracy != m.Accuracy() {
		t.Fatalf("summary accuracy %v != matrix accuracy %v", p.Summary.OverallAccuracy, m.Accuracy())
	}
	if p.Summary.WorstCellAccuracy != 0 {
		t.Fatalf("worst cell should be an all-wrong RENO cell: %+v", p.Summary)
	}

	dir := t.TempDir()
	path, err := Trajectory.NextPath(dir)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(path) != "ACCURACY_0.json" {
		t.Fatalf("first point should be ACCURACY_0.json, got %s", path)
	}
	if err := trajectory.Write(path, p); err != nil {
		t.Fatal(err)
	}
	got, err := trajectory.Read[Point](Trajectory, path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Cells, p.Cells) || !reflect.DeepEqual(got.Summary, p.Summary) {
		t.Fatal("point did not round-trip")
	}

	next, err := Trajectory.NextPath(dir)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(next) != "ACCURACY_1.json" {
		t.Fatalf("second point should be ACCURACY_1.json, got %s", next)
	}
	p.Label = "second"
	if err := trajectory.Write(next, p); err != nil {
		t.Fatal(err)
	}
	latest, err := Trajectory.LatestPath(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := trajectory.Read[Point](Trajectory, latest); err != nil || got.Label != "second" {
		t.Fatalf("latest point = %q, %v; want the second", got.Label, err)
	}

	if out := Compare(p, got); !strings.Contains(out, "overall") {
		t.Fatalf("compare table missing overall row:\n%s", out)
	}
}

func TestBudgetCheck(t *testing.T) {
	id := core.NewIdentifierAt(stub{label: "CUBIC2", conf: 1}, probe.Paper)
	m := Run(fixed(id), smallConfig())
	p := NewPoint("test", "stub", 42, m)

	min := func(v float64) *float64 { return &v }
	ok := Budget{
		"overall":                  {MinAccuracy: min(0.0)},
		"scenario/clean":           {MinAccuracy: min(0.0)},
		"cell/CUBIC2|clean|paper":  {MinAccuracy: min(1.0)},
		"cell/RENO|clean|paper":    {},                 // no limit: unchecked
		"scenario/nonexistent_off": {MinAccuracy: nil}, // nil limit: unchecked
	}
	delete(ok, "scenario/nonexistent_off") // key itself must parse; drop it
	if v := ok.Check(p); len(v) != 0 {
		t.Fatalf("budget should pass, got violations: %v", v)
	}

	bad := Budget{
		"overall":               {MinAccuracy: min(1.1)},
		"scenario/clean":        {MinAccuracy: min(1.1)},
		"scenario/missing":      {MinAccuracy: min(0.1)},
		"cell/RENO|clean|paper": {MinAccuracy: min(0.5)},
		"cell/NOPE|clean|paper": {MinAccuracy: min(0.1)},
	}
	v := bad.Check(p)
	if len(v) != 5 {
		t.Fatalf("want 5 violations, got %d: %v", len(v), v)
	}
}

func TestBudgetLoadRejectsBadKeys(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "budget.json")
	if err := os.WriteFile(path, []byte(`{"bogus_key": {"min_accuracy": 0.5}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := trajectory.LoadBudget[Budget](path); err == nil {
		t.Fatal("LoadBudget should reject unknown key forms")
	}
	if err := os.WriteFile(path, []byte(`{"scenario/clean": {"min_accuracy": 0.5}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := trajectory.LoadBudget[Budget](path); err != nil {
		t.Fatalf("valid budget rejected: %v", err)
	}
}

func TestBudgetOfNamesDefaultBudgets(t *testing.T) {
	for _, tc := range []struct {
		cfg  probe.Config
		want string
	}{
		{probe.Paper, "paper"},
		{probe.Config{}, "lean"},
		{probe.Config{}.Resolved(), "lean"},
		{probe.Config{WmaxLadder: []int{128, 64}}, "model"},
	} {
		if got := BudgetOf(tc.cfg).Name; got != tc.want {
			t.Errorf("BudgetOf(%+v) = %s, want %s", tc.cfg, got, tc.want)
		}
	}
}
