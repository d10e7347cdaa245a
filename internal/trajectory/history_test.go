package trajectory_test

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/bench"
	"repro/internal/eval"
	"repro/internal/trajectory"
)

// root holds the committed histories and budget files.
var root = filepath.Join("..", "..")

func write(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "point.json")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestReadPointRejectsForeignFiles: each history reads its own points,
// the committed ones included (BENCH_0.json is a hand-recorded `go test
// -bench` baseline), and rejects the other history's files, foreign
// sources and unknown schemas.
func TestReadPointRejectsForeignFiles(t *testing.T) {
	for _, name := range []string{"BENCH_0.json", "BENCH_5.json"} {
		if _, err := trajectory.Read[bench.Point](bench.Trajectory, filepath.Join(root, name)); err != nil {
			t.Errorf("committed %s: %v", name, err)
		}
		if _, err := trajectory.Read[eval.Point](eval.Trajectory, filepath.Join(root, name)); err == nil {
			t.Errorf("%s read as an ACCURACY point", name)
		}
	}
	for _, name := range []string{"ACCURACY_0.json", "ACCURACY_1.json"} {
		if _, err := trajectory.Read[eval.Point](eval.Trajectory, filepath.Join(root, name)); err != nil {
			t.Errorf("committed %s: %v", name, err)
		}
		if _, err := trajectory.Read[bench.Point](bench.Trajectory, filepath.Join(root, name)); err == nil {
			t.Errorf("%s read as a BENCH point", name)
		}
	}
	for _, body := range []string{
		`{"schema":1,"source":"caai-eval"}`,
		`{"schema":1,"source":"hand-edited"}`,
		`{"schema":99,"source":"caai-bench"}`,
		`{"schema":1,"source":"caai-bench"`, // truncated
	} {
		if _, err := trajectory.Read[bench.Point](bench.Trajectory, write(t, body)); err == nil {
			t.Errorf("%s read as a BENCH point", body)
		}
	}
	for _, body := range []string{
		`{"schema":1,"source":"caai-bench"}`,
		`{"schema":99,"source":"caai-eval"}`,
		`{}`,
	} {
		if _, err := trajectory.Read[eval.Point](eval.Trajectory, write(t, body)); err == nil {
			t.Errorf("%s read as an ACCURACY point", body)
		}
	}
}

// TestBudgetLoadRejectsUnknownLimitField: a typoed limit field fails the
// load in both histories instead of leaving its entry limitless, and the
// committed budget files still load.
func TestBudgetLoadRejectsUnknownLimitField(t *testing.T) {
	if _, err := trajectory.LoadBudget[bench.Budget](write(t, `{"forest/votes_into": {"max_alloc_per_op": 0}}`)); err == nil {
		t.Error("bench budget with max_alloc_per_op loaded")
	}
	if _, err := trajectory.LoadBudget[eval.Budget](write(t, `{"scenario/clean": {"min_accurracy": 0.95}}`)); err == nil {
		t.Error("accuracy budget with min_accurracy loaded")
	}
	if b, err := trajectory.LoadBudget[bench.Budget](filepath.Join(root, "bench_budget.json")); err != nil || len(b) == 0 {
		t.Errorf("committed bench_budget.json: %d entries, %v", len(b), err)
	}
	if b, err := trajectory.LoadBudget[eval.Budget](filepath.Join(root, "accuracy_budget.json")); err != nil || len(b) == 0 {
		t.Errorf("committed accuracy_budget.json: %d entries, %v", len(b), err)
	}
}
