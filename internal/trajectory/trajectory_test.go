package trajectory

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func touch(t *testing.T, dir, name string) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, name), []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestScanNextAndLatest(t *testing.T) {
	bench, accuracy := Kind{Prefix: "BENCH"}, Kind{Prefix: "ACCURACY"}
	dir := t.TempDir()
	if p, err := bench.NextPath(dir); err != nil || filepath.Base(p) != "BENCH_0.json" {
		t.Fatalf("empty history NextPath = %v, %v", p, err)
	}
	if _, err := bench.LatestPath(dir); err == nil {
		t.Fatal("LatestPath on an empty history must error")
	}
	touch(t, dir, "BENCH_0.json")
	touch(t, dir, "BENCH_2.json") // gap: indices need not be dense
	touch(t, dir, "BENCH_10.json")
	touch(t, dir, "ACCURACY_99.json") // other prefix: ignored
	touch(t, dir, "BENCH_x.json")     // malformed: ignored
	touch(t, dir, "notes.txt")
	if p, _ := bench.NextPath(dir); filepath.Base(p) != "BENCH_11.json" {
		t.Fatalf("NextPath = %v", p)
	}
	if p, _ := bench.LatestPath(dir); filepath.Base(p) != "BENCH_10.json" {
		t.Fatalf("LatestPath = %v", p)
	}
	if p, _ := accuracy.NextPath(dir); filepath.Base(p) != "ACCURACY_100.json" {
		t.Fatalf("ACCURACY NextPath = %v", p)
	}
}

// point and budget are a minimal history for the shared command tail.
type point struct {
	Schema int    `json:"schema"`
	Source string `json:"source"`
	Score  int    `json:"score"`
}

type budget map[string]int

func (b budget) Check(p point) []string {
	if min, ok := b["min_score"]; ok && p.Score < min {
		return []string{"score below budget"}
	}
	return nil
}

var toy = Kind{Prefix: "TOY", Schema: 1, Source: func(s string) bool { return s == "toy" }, Noun: "toy", Violation: "TOY"}

func TestRecordWritesThenGates(t *testing.T) {
	dir := t.TempDir()
	p := point{Schema: 1, Source: "toy", Score: 3}
	record := func(r Run) (string, error) {
		var out strings.Builder
		r.Dir = dir
		rec, err := Open[point, budget](toy, r)
		if err != nil {
			return "", err
		}
		err = rec.Record(&out, p)
		return out.String(), err
	}

	// A filtered run neither writes nor gates.
	if out, err := record(Run{Filtered: true, Budget: "anything.json"}); err != nil || !strings.Contains(out, "filtered run") {
		t.Fatalf("filtered run: %q, %v", out, err)
	}
	// A missing budget file disables the gate; the point is still written.
	if out, err := record(Run{Budget: filepath.Join(dir, "missing.json")}); err != nil || !strings.Contains(out, "TOY_0.json") {
		t.Fatalf("ungated run: %q, %v", out, err)
	}
	got, err := Read[point](toy, filepath.Join(dir, "TOY_0.json"))
	if err != nil || got != p {
		t.Fatalf("round trip = %+v, %v", got, err)
	}

	path := filepath.Join(dir, "budget.json")
	touchBody := func(body string) {
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	touchBody(`{"min_score": 3}`)
	if out, err := record(Run{Budget: path, DryRun: true}); err != nil || !strings.Contains(out, "all toy budgets met") || strings.Contains(out, "wrote") {
		t.Fatalf("dry run within budget: %q, %v", out, err)
	}
	touchBody(`{"min_score": 4}`)
	out, err := record(Run{Budget: path})
	if err == nil || !strings.Contains(out, "TOY VIOLATION: score below budget") || !strings.Contains(out, "TOY_1.json") {
		t.Fatalf("run over budget: %q, %v", out, err)
	}
	// A malformed budget fails Open, before anything is measured or
	// written.
	touchBody(`{"min_score": 1`)
	if _, err := Open[point, budget](toy, Run{Dir: dir, Budget: path}); err == nil {
		t.Fatal("a malformed budget must fail the run")
	}
}

func TestCompareReadsBothPoints(t *testing.T) {
	dir := t.TempDir()
	before, after := filepath.Join(dir, "TOY_0.json"), filepath.Join(dir, "TOY_1.json")
	if err := Write(before, point{Schema: 1, Source: "toy", Score: 1}); err != nil {
		t.Fatal(err)
	}
	if err := Write(after, point{Schema: 1, Source: "toy", Score: 2}); err != nil {
		t.Fatal(err)
	}
	render := func(b, a point) string { return fmt.Sprintf("%d -> %d\n", b.Score, a.Score) }
	var out strings.Builder
	if err := Compare(&out, toy, []string{before, after}, render); err != nil || out.String() != "1 -> 2\n" {
		t.Fatalf("compare = %q, %v", out.String(), err)
	}
	if err := Compare(&out, toy, []string{before}, render); err == nil {
		t.Fatal("one file must be an argument error")
	}
	foreign := filepath.Join(dir, "foreign.json")
	if err := Write(foreign, point{Schema: 1, Source: "other"}); err != nil {
		t.Fatal(err)
	}
	if err := Compare(&out, toy, []string{before, foreign}, render); err == nil || !strings.Contains(err.Error(), "foreign.json") {
		t.Fatalf("foreign file: %v, want an error naming it", err)
	}
}
