package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/trajectory"
)

// TestCompareMode: -compare renders a before/after table without running
// the (expensive) suite.
func TestCompareMode(t *testing.T) {
	dir := t.TempDir()
	before := bench.NewPoint("before", "quick")
	before.Benchmarks = []bench.Result{{Name: "service/identify_miss", NsPerOp: 900000, AllocsPerOp: 594}}
	after := bench.NewPoint("after", "quick")
	after.Benchmarks = []bench.Result{{Name: "service/identify_miss", NsPerOp: 450000, AllocsPerOp: 88}}
	b0 := filepath.Join(dir, "BENCH_0.json")
	b1 := filepath.Join(dir, "BENCH_1.json")
	if err := trajectory.Write(b0, before); err != nil {
		t.Fatal(err)
	}
	if err := trajectory.Write(b1, after); err != nil {
		t.Fatal(err)
	}

	var out strings.Builder
	if err := run([]string{"-compare", b0, b1}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "2.00x") {
		t.Fatalf("compare output missing speedup:\n%s", out.String())
	}
}

// TestCompareModeArgValidation: -compare without two files is an error.
func TestCompareModeArgValidation(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-compare", "one.json"}, &out); err == nil {
		t.Fatal("expected an argument error")
	}
}

// TestBudgetsFileParses: the checked-in budget file must stay loadable and
// reference only suite benchmark names.
func TestBudgetsFileParses(t *testing.T) {
	path := filepath.Join("..", "..", "bench_budget.json")
	if _, err := os.Stat(path); err != nil {
		t.Skipf("budget file not present: %v", err)
	}
	budget, err := trajectory.LoadBudget[bench.Budget](path)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := budget["service/identify_miss"]; !ok {
		t.Fatal("budget must gate service/identify_miss (the cache-miss hot path)")
	}
	for name, lim := range budget {
		if lim.MaxAllocsPerOp != nil && *lim.MaxAllocsPerOp < 0 {
			t.Fatalf("budget %s has a negative alloc limit", name)
		}
		if lim.MaxNsPerOp != nil && *lim.MaxNsPerOp < 0 {
			t.Fatalf("budget %s has a negative ns limit", name)
		}
	}
	// The zero-alloc budgets must be explicit zeros (enforced), not
	// absent fields.
	if lim := budget["forest/votes_into"]; lim.MaxAllocsPerOp == nil || *lim.MaxAllocsPerOp != 0 {
		t.Fatal("forest/votes_into must carry an explicit 0 allocs/op budget")
	}
}

// TestCompareRejectsAccuracyPoints: -compare reads only BENCH points. An
// ACCURACY file is an error naming it, not an empty table, and the
// committed history, hand-recorded BENCH_0.json included, still compares.
func TestCompareRejectsAccuracyPoints(t *testing.T) {
	root := filepath.Join("..", "..")
	var out strings.Builder
	accuracy := filepath.Join(root, "ACCURACY_1.json")
	err := run([]string{"-compare", filepath.Join(root, "ACCURACY_0.json"), accuracy}, &out)
	if err == nil || !strings.Contains(err.Error(), "ACCURACY_0.json") {
		t.Fatalf("-compare of ACCURACY points: err = %v, output:\n%s", err, out.String())
	}
	err = run([]string{"-compare", filepath.Join(root, "BENCH_5.json"), accuracy}, &out)
	if err == nil || !strings.Contains(err.Error(), "ACCURACY_1.json") {
		t.Fatalf("-compare against an ACCURACY point: err = %v", err)
	}
	out.Reset()
	if err := run([]string{"-compare", filepath.Join(root, "BENCH_0.json"), filepath.Join(root, "BENCH_5.json")}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "service/identify_miss") || !strings.Contains(out.String(), "speedup min/median/max") {
		t.Fatalf("committed history compares to:\n%s", out.String())
	}
}

// TestBudgetRejectsUnknownLimitField gates a run on a budget whose only
// limit is mistyped: the run must fail on the budget rather than pass 0
// allocs/op against no limit at all, and fail before it trains, runs a
// single case or writes a point. The suite is held to one iteration per
// case in case it does run.
func TestBudgetRejectsUnknownLimitField(t *testing.T) {
	benchtime := flag.Lookup("test.benchtime")
	old := benchtime.Value.String()
	if err := benchtime.Value.Set("1x"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { benchtime.Value.Set(old) })

	dir := t.TempDir()
	budget := filepath.Join(dir, "budget.json")
	if err := os.WriteFile(budget, []byte(`{"forest/votes_into": {"max_alloc_per_op": 0}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	err := run([]string{"-conditions", "2", "-accuracy=false", "-out", dir, "-budget", budget}, &out)
	if err == nil || !strings.Contains(err.Error(), "max_alloc_per_op") {
		t.Fatalf("mistyped budget: err = %v, output:\n%s", err, out.String())
	}
	if out.Len() > 0 {
		t.Fatalf("a run with a mistyped budget measured before failing:\n%s", out.String())
	}
	if points, _ := filepath.Glob(filepath.Join(dir, "BENCH_*.json")); len(points) > 0 {
		t.Fatalf("a run with a mistyped budget wrote %v", points)
	}
}
