package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/forest"
	"repro/internal/netem"
	"repro/internal/probe"
	"repro/internal/trajectory"
)

// TestEvalWritesPointAndEnforcesBudget drives the command end to end at a
// tiny scale: train, sweep a full (unfiltered) matrix over a reduced
// algorithm list, write ACCURACY_0.json, and gate it against a budget file.
func TestEvalWritesPointAndEnforcesBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	dir := t.TempDir()
	budget := filepath.Join(dir, "accuracy_budget.json")
	if err := os.WriteFile(budget, []byte(`{"overall": {"min_accuracy": 0.0}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	err := run([]string{
		"-train", "4", "-trees", "20", "-trials", "2",
		"-out", dir, "-budget", budget, "-label", "test",
	}, &out)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "all accuracy budgets met") {
		t.Fatalf("budget gate did not run:\n%s", out.String())
	}
	p, err := trajectory.Read[eval.Point](eval.Trajectory, filepath.Join(dir, "ACCURACY_0.json"))
	if err != nil {
		t.Fatal(err)
	}
	if p.Summary.Cells == 0 || len(p.Cells) != p.Summary.Cells {
		t.Fatalf("point has inconsistent cells: %+v", p.Summary)
	}
	if len(p.Confusion) == 0 {
		t.Fatal("point has no confusion matrices")
	}

	// An impossible budget must fail the run.
	if err := os.WriteFile(budget, []byte(`{"scenario/clean": {"min_accuracy": 1.01}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	err = run([]string{
		"-train", "4", "-trees", "20", "-trials", "2",
		"-out", dir, "-budget", budget, "-n",
	}, &out)
	if err == nil || !strings.Contains(err.Error(), "violation") {
		t.Fatalf("impossible budget should fail the run, got %v", err)
	}
}

// TestEvalRejectsMistypedBudgetFirst: a budget with a mistyped limit
// fails the run before it trains a model, sweeps a cell or writes a
// point.
func TestEvalRejectsMistypedBudgetFirst(t *testing.T) {
	dir := t.TempDir()
	budget := filepath.Join(dir, "accuracy_budget.json")
	if err := os.WriteFile(budget, []byte(`{"scenario/clean": {"min_accurracy": 0.95}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	err := run([]string{"-train", "4", "-trees", "20", "-trials", "2", "-out", dir, "-budget", budget}, &out)
	if err == nil || !strings.Contains(err.Error(), "min_accurracy") {
		t.Fatalf("mistyped budget: err = %v, output:\n%s", err, out.String())
	}
	if out.Len() > 0 {
		t.Fatalf("a run with a mistyped budget measured before failing:\n%s", out.String())
	}
	if points, _ := filepath.Glob(filepath.Join(dir, "ACCURACY_*.json")); len(points) > 0 {
		t.Fatalf("a run with a mistyped budget wrote %v", points)
	}
}

// TestEvalFilteredRunSkipsWriteAndGate mirrors caai-bench: subset runs
// (any of -algorithms, -scenarios, -budgets) are exploratory — a partial
// matrix must neither enter the trajectory history nor face the gate.
func TestEvalFilteredRunSkipsWriteAndGate(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	dir := t.TempDir()
	var out strings.Builder
	err := run([]string{
		"-train", "4", "-trees", "20", "-trials", "2",
		"-algorithms", "CUBIC2", "-scenarios", "clean",
		"-out", dir, "-budget", "",
	}, &out)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "filtered run") {
		t.Fatalf("filtered run not announced:\n%s", out.String())
	}
	if _, err := os.Stat(filepath.Join(dir, "ACCURACY_0.json")); !os.IsNotExist(err) {
		t.Fatal("filtered run must not write a trajectory point")
	}
}

// TestEvalModelSweepsItsOwnBudget: a saved model is graded only at the
// budget its file records, so its one-budget matrix is exploratory, and
// asking for another budget is an error.
func TestEvalModelSweepsItsOwnBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	ds, err := core.GenerateTrainingSet(netem.MeasuredDatabase(), core.TrainingConfig{
		ConditionsPerPair: 2, Algorithms: []string{"CUBIC2", "RENO"}, Seed: 3, Probe: probe.Paper,
	})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "paper.json")
	if err := core.NewIdentifierAt(forest.Train(ds, forest.Config{Trees: 5, Seed: 4}), probe.Paper).SaveFile(path); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := run([]string{"-model", path, "-trials", "1", "-algorithms", "CUBIC2", "-out", dir}, &out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "at its paper budget") || !strings.Contains(out.String(), "budget paper (") ||
		strings.Contains(out.String(), "budget lean (") {
		t.Fatalf("the paper-budget model was not swept at its budget alone:\n%s", out.String())
	}
	if _, err := os.Stat(filepath.Join(dir, "ACCURACY_0.json")); !os.IsNotExist(err) {
		t.Fatal("a one-budget run must not write a trajectory point")
	}
	if err := run([]string{"-model", path, "-budgets", "lean"}, &out); err == nil {
		t.Fatal("-budgets with -model should fail")
	}
}

func TestEvalRejectsUnknownNames(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-algorithms", "NOPE"}, &out); err == nil {
		t.Fatal("unknown algorithm should fail")
	}
	if err := run([]string{"-scenarios", "nope"}, &out); err == nil {
		t.Fatal("unknown scenario should fail")
	}
	if err := run([]string{"-budgets", "nope"}, &out); err == nil {
		t.Fatal("unknown budget should fail")
	}
}

// TestCompareCommittedHistory: -compare renders the committed accuracy
// history and rejects a BENCH point by name.
func TestCompareCommittedHistory(t *testing.T) {
	root := filepath.Join("..", "..")
	var out strings.Builder
	if err := run([]string{"-compare", filepath.Join(root, "ACCURACY_0.json"), filepath.Join(root, "ACCURACY_1.json")}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "burst_loss") || !strings.Contains(out.String(), "overall") {
		t.Fatalf("committed history compares to:\n%s", out.String())
	}
	err := run([]string{"-compare", filepath.Join(root, "ACCURACY_1.json"), filepath.Join(root, "BENCH_5.json")}, &out)
	if err == nil || !strings.Contains(err.Error(), "BENCH_5.json") {
		t.Fatalf("-compare against a BENCH point: err = %v", err)
	}
}
