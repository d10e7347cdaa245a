package bench

import (
	"flag"
	"math/rand"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/netem"
	"repro/internal/probe"
	"repro/internal/trajectory"
	"repro/internal/websim"
	"repro/internal/xrand"
)

func TestPointRoundTripAndHistory(t *testing.T) {
	dir := t.TempDir()
	p0 := NewPoint("first", "quick")
	p0.Benchmarks = []Result{{Name: "a/b", N: 10, NsPerOp: 100, AllocsPerOp: 2}}
	p1 := NewPoint("second", "quick")
	p1.Benchmarks = []Result{{Name: "a/b", N: 20, NsPerOp: 50, AllocsPerOp: 0}}
	for _, p := range []Point{p0, p1} {
		path, err := Trajectory.NextPath(dir)
		if err != nil {
			t.Fatal(err)
		}
		if err := trajectory.Write(path, p); err != nil {
			t.Fatal(err)
		}
	}
	first, err := trajectory.Read[Point](Trajectory, filepath.Join(dir, "BENCH_0.json"))
	if err != nil {
		t.Fatal(err)
	}
	latest, err := Trajectory.LatestPath(dir)
	if err != nil {
		t.Fatal(err)
	}
	second, err := trajectory.Read[Point](Trajectory, latest)
	if err != nil {
		t.Fatal(err)
	}
	if first.Label != "first" || second.Label != "second" || !reflect.DeepEqual(second.Benchmarks, p1.Benchmarks) {
		t.Fatalf("history = %+v, %+v", first, second)
	}
	table := Compare(first, second)
	if !strings.Contains(table, "2.00x") {
		t.Fatalf("compare table missing the 2x speedup:\n%s", table)
	}
}

func allocLimit(n int64) *int64  { return &n }
func nsLimit(n float64) *float64 { return &n }

func TestBudgetCheck(t *testing.T) {
	b := Budget{
		"hot/path":   {MaxAllocsPerOp: allocLimit(10)},
		"never/ran":  {MaxAllocsPerOp: allocLimit(1)},
		"timed/path": {MaxNsPerOp: nsLimit(1000)},
	}
	results := []Result{
		{Name: "hot/path", AllocsPerOp: 11},
		{Name: "timed/path", NsPerOp: 999},
	}
	violations := b.Check(Point{Benchmarks: results})
	if len(violations) != 2 {
		t.Fatalf("violations = %v, want allocs overrun + missing benchmark", violations)
	}
	joined := strings.Join(violations, "\n")
	if !strings.Contains(joined, "hot/path") || !strings.Contains(joined, "never/ran") {
		t.Fatalf("unexpected violations: %v", violations)
	}

	results[0].AllocsPerOp = 10
	results = append(results, Result{Name: "never/ran"})
	if violations := b.Check(Point{Benchmarks: results}); len(violations) != 0 {
		t.Fatalf("within-budget run reported %v", violations)
	}
}

// TestBudgetCheckMetrics: a max_metrics bound is enforced against the
// benchmark's ReportMetric extras, and a budgeted metric that was never
// reported is a violation of its own (like a missing benchmark).
func TestBudgetCheckMetrics(t *testing.T) {
	b := Budget{"telemetry/overhead": {
		MaxAllocsPerOp: allocLimit(0),
		MaxMetrics:     map[string]float64{"overhead-%": 5},
	}}
	over := []Result{{Name: "telemetry/overhead", Metrics: map[string]float64{"overhead-%": 7.2}}}
	if v := b.Check(Point{Benchmarks: over}); len(v) != 1 || !strings.Contains(v[0], "overhead-%") {
		t.Fatalf("7.2%% against a 5%% metric budget reported %v, want one violation", v)
	}
	missing := []Result{{Name: "telemetry/overhead"}}
	if v := b.Check(Point{Benchmarks: missing}); len(v) != 1 || !strings.Contains(v[0], "not reported") {
		t.Fatalf("unreported budgeted metric reported %v, want one violation", v)
	}
	within := []Result{{Name: "telemetry/overhead", Metrics: map[string]float64{"overhead-%": 1.3}}}
	if v := b.Check(Point{Benchmarks: within}); len(v) != 0 {
		t.Fatalf("within-budget metric reported %v", v)
	}
}

// TestBudgetCheckZeroIsEnforced: an explicit 0 budget is a real limit —
// the zero-allocation contracts are the whole point of the gate.
func TestBudgetCheckZeroIsEnforced(t *testing.T) {
	b := Budget{"forest/votes_into": {MaxAllocsPerOp: allocLimit(0)}}
	if v := b.Check(Point{Benchmarks: []Result{{Name: "forest/votes_into", AllocsPerOp: 1}}}); len(v) != 1 {
		t.Fatalf("1 alloc against a 0 budget reported %v, want a violation", v)
	}
	if v := b.Check(Point{Benchmarks: []Result{{Name: "forest/votes_into", AllocsPerOp: 0}}}); len(v) != 0 {
		t.Fatalf("0 allocs against a 0 budget reported %v", v)
	}
}

func TestRunExecutesAndFilters(t *testing.T) {
	ran := map[string]bool{}
	cases := []Case{
		{Name: "group/fast", Bench: func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
			}
			ran["group/fast"] = true
			b.ReportMetric(42, "answer")
		}},
		{Name: "other/skip", Bench: func(b *testing.B) { ran["other/skip"] = true }},
	}
	results, err := Run(cases, regexp.MustCompile(`^group/`), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !ran["group/fast"] || ran["other/skip"] {
		t.Fatalf("filter ran the wrong cases: %v", ran)
	}
	if len(results) != 1 || results[0].Name != "group/fast" {
		t.Fatalf("results = %+v", results)
	}
	if results[0].Metrics["answer"] != 42 {
		t.Fatalf("ReportMetric extras not captured: %+v", results[0])
	}
}

// TestRunSurfacesBenchmarkFailure: a case that b.Fatals must turn into an
// error, not an N=0 result that serializes as NaN and passes the gate.
func TestRunSurfacesBenchmarkFailure(t *testing.T) {
	cases := []Case{{Name: "broken/case", Bench: func(b *testing.B) {
		b.Fatal("boom")
	}}}
	if _, err := Run(cases, nil, nil); err == nil || !strings.Contains(err.Error(), "broken/case") {
		t.Fatalf("err = %v, want a failure naming broken/case", err)
	}
}

// stub answers every vector with one label; identification validity
// depends on probing alone.
type stub struct{}

func (stub) Name() string                         { return "stub" }
func (stub) Classify([]float64) (string, float64) { return "RENO", 1 }

// TestIdentifyBatchValidCountsEveryBatch: valid-% is the valid share of
// every job of every batch the benchmark ran, not of its last batch, so
// the figure does not depend on b.N.
func TestIdentifyBatchValidCountsEveryBatch(t *testing.T) {
	benchtime := flag.Lookup("test.benchtime")
	old := benchtime.Value.String()
	if err := benchtime.Value.Set("14x"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { benchtime.Value.Set(old) })

	const jobs = 64
	r := testing.Benchmark(IdentifyBatch(stub{}, jobs))
	if r.N != 14 {
		t.Fatalf("benchmark ran %d batches, want 14", r.N)
	}
	// Replay the benchmark's batches: the same servers, conditions and
	// seeds. Of these 14, only the last has an invalid job.
	rng := rand.New(rand.NewSource(77))
	db := netem.MeasuredDatabase()
	names := cc.CAAINames()
	servers := make([]*websim.Server, jobs)
	conds := make([]netem.Condition, jobs)
	for i := range servers {
		servers[i], conds[i] = websim.Testbed(names[i%len(names)]), db.Sample(rng)
	}
	id := core.NewIdentifier(stub{})
	valid, perBatch := 0, map[int]bool{}
	for i := 0; i < r.N; i++ {
		batch := 0
		for k := 0; k < jobs; k++ {
			if id.NewSession().Identify(servers[k], conds[k], probe.Config{}, xrand.New(int64(i)+int64(k+1)*15485863)).Valid {
				batch++
			}
		}
		valid += batch
		perBatch[batch] = true
	}
	if len(perBatch) < 2 {
		t.Fatalf("every batch had the same valid count %v: the check cannot tell one batch from all", perBatch)
	}
	if got, want := r.Extra["valid-%"], float64(valid)/float64(jobs*r.N)*100; got != want {
		t.Fatalf("valid-%% = %v, want %v over all %d batches", got, want, r.N)
	}
}
