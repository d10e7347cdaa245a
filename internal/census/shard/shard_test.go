package shard

import (
	"context"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/census"
	"repro/internal/core"
	"repro/internal/netem"
	"repro/internal/probe"
)

// stubClassifier is a deterministic zero-cost model: shard tests exercise
// probing, scheduling, and fault tolerance, not classification quality,
// so they skip forest training entirely.
type stubClassifier struct{}

func (stubClassifier) Name() string { return "stub" }

func (stubClassifier) Classify(features []float64) (string, float64) {
	if len(features) > 0 && features[0] > 0.5 {
		return "BIC", 0.9
	}
	return "RENO", 0.8
}

// testEnv builds a small deterministic census environment.
func testEnv(t testing.TB, servers int) ([]census.GroundTruth, *core.Identifier, *netem.Database) {
	t.Helper()
	cfg := census.DefaultPopulationConfig()
	cfg.Servers = servers
	return census.GeneratePopulation(cfg), core.NewIdentifier(stubClassifier{}), netem.MeasuredDatabase()
}

// fastBackoff keeps fault-heavy tests from sleeping real milliseconds.
func fastBackoff(cfg *Config) {
	cfg.backoffBase = time.Microsecond
	cfg.backoffMax = 50 * time.Microsecond
}

// TestNoFaultMatchesCensusRun is the equivalence contract: a sharded run
// with no faults produces outcome-identical results to census.Run with
// the same seed, whatever the worker count.
func TestNoFaultMatchesCensusRun(t *testing.T) {
	pop, id, db := testEnv(t, 120)
	want := census.Run(pop, id, db, census.RunConfig{Seed: 7})

	for _, workers := range []int{1, 3, 8} {
		got, prog, err := Run(context.Background(), pop, id, db, Config{Workers: workers, Seed: 7})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if prog.Completed != len(pop) || prog.Retries != 0 || prog.TargetsAbandoned != 0 {
			t.Fatalf("workers=%d: progress %+v", workers, prog)
		}
		if sum := workerCompleted(prog); sum != int64(prog.Completed) {
			t.Fatalf("workers=%d: per-worker completions sum to %d, progress says %d", workers, sum, prog.Completed)
		}
		if !reflect.DeepEqual(got.Outcomes, want.Outcomes) {
			t.Fatalf("workers=%d: outcomes differ from census.Run", workers)
		}
		if got.TableIV() != want.TableIV() {
			t.Fatalf("workers=%d: tables differ:\n%s\n--\n%s", workers, got.TableIV(), want.TableIV())
		}
	}
}

// workerCompleted sums the per-worker completion counts of a snapshot.
func workerCompleted(p Progress) int64 {
	var n int64
	for _, w := range p.Workers {
		n += w.Completed
	}
	return n
}

// chaosPlan is the fixed plan of the CI chaos smoke: one worker crash,
// 5% probe errors, plus rate limiting, unreachables, latency spikes, and
// lost checkpoint writes.
func chaosPlan() *FaultPlan {
	return &FaultPlan{
		Seed:                3,
		ProbeErrorRate:      0.05,
		RateLimitRate:       0.05,
		UnreachableRate:     0.02,
		LatencySpikeRate:    0.02,
		LatencySpikeMs:      0.01,
		WorkerCrashes:       []WorkerCrash{{Worker: 1, AfterCompleted: 5}},
		CheckpointFailEvery: 7,
	}
}

// TestChaosResumeDeterminism is the determinism-under-failure property
// (and the CI chaos smoke): a census killed mid-run and resumed from its
// checkpoint under a seeded FaultPlan yields byte-identical Table IV and
// accuracy to the uninterrupted run with the same seed.
func TestChaosResumeDeterminism(t *testing.T) {
	pop, id, db := testEnv(t, 120)
	base := Config{Workers: 4, Seed: 9, Fault: chaosPlan()}
	fastBackoff(&base)

	clean, cleanProg, err := Run(context.Background(), pop, id, db, base)
	if err != nil {
		t.Fatalf("clean run: %v", err)
	}
	if cleanProg.Retries == 0 || cleanProg.TargetsAbandoned == 0 {
		t.Fatalf("chaos plan injected nothing: %+v", cleanProg)
	}

	// Interrupted run: kill the census after a third of the probes. The
	// cancellation fires from the probe hook, so the cut-off is exact and
	// the test never races the run to completion.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var probes atomic.Int64
	interrupted := base
	interrupted.Checkpoint = t.TempDir()
	interrupted.beforeProbe = func() {
		if probes.Add(1) == int64(len(pop)/3) {
			cancel()
		}
	}
	c, err := New(pop, id, db, interrupted)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run returned %v, want context.Canceled", err)
	}
	if got := c.Progress().Completed; got >= len(pop) {
		t.Fatalf("interruption came too late to prove anything: %d/%d", got, len(pop))
	}

	// ...then resume in a fresh coordinator, as a restarted process would.
	resume := interrupted
	resume.Resume = true
	resume.beforeProbe = nil
	r, err := New(pop, id, db, resume)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Run(context.Background()); err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	prog := r.Progress()
	if prog.Resumed == 0 {
		t.Fatal("resume restored nothing from the checkpoint")
	}
	got := r.Report()

	if got.TableIV() != clean.TableIV() {
		t.Fatalf("resumed table differs from clean run:\n%s\n--\n%s", got.TableIV(), clean.TableIV())
	}
	if got.Accuracy() != clean.Accuracy() {
		t.Fatalf("accuracy %v != %v", got.Accuracy(), clean.Accuracy())
	}
	if !reflect.DeepEqual(got.Outcomes, clean.Outcomes) {
		t.Fatal("resumed outcomes differ from clean run")
	}
	if !reflect.DeepEqual(got.InvalidByReason, clean.InvalidByReason) {
		t.Fatalf("invalid accounting differs: %v vs %v", got.InvalidByReason, clean.InvalidByReason)
	}
}

// TestAbandonedTargetsAccounted: every given-up target lands in
// InvalidByReason under its abandonment reason -- never silently dropped.
func TestAbandonedTargetsAccounted(t *testing.T) {
	pop, id, db := testEnv(t, 80)
	cfg := Config{
		Workers:      3,
		Seed:         11,
		MaxAttempts:  2,
		MaxDeferrals: 2,
		Fault: &FaultPlan{
			Seed:            5,
			ProbeErrorRate:  0.45,
			RateLimitRate:   0.25,
			UnreachableRate: 0.10,
		},
	}
	fastBackoff(&cfg)
	report, prog, err := Run(context.Background(), pop, id, db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if report.Total != len(pop) {
		t.Fatalf("total = %d, want %d", report.Total, len(pop))
	}
	abandoned := 0
	for _, reason := range []string{
		string(ReasonUnreachable), string(ReasonRetriesExhausted), string(ReasonDeferralsExhausted),
	} {
		n := 0
		for r, c := range report.InvalidByReason {
			if string(r) == reason {
				n = c
			}
		}
		if n == 0 {
			t.Errorf("no targets recorded under %q", reason)
		}
		abandoned += n
	}
	if int64(abandoned) != prog.TargetsAbandoned {
		t.Fatalf("InvalidByReason abandoned sum %d != counter %d", abandoned, prog.TargetsAbandoned)
	}
	if prog.Retries == 0 || prog.Deferrals == 0 {
		t.Fatalf("expected retries and deferrals: %+v", prog)
	}
	if prog.Attempts.Max() < 2 {
		t.Fatalf("attempt histogram never saw a retry: %+v", prog.Attempts)
	}
	if prog.Attempts.Count != int64(len(pop)) {
		t.Fatalf("attempt histogram count %d != population %d", prog.Attempts.Count, len(pop))
	}
}

// TestWorkerCrashLosesNoWork: a worker that dies before its first target
// loses no work -- the survivors pop everything it would have taken, and
// the table matches the fault-free run's.
func TestWorkerCrashLosesNoWork(t *testing.T) {
	pop, id, db := testEnv(t, 60)
	clean, _, err := Run(context.Background(), pop, id, db, Config{Workers: 3, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Workers: 3,
		Seed:    17,
		Fault:   &FaultPlan{Seed: 1, WorkerCrashes: []WorkerCrash{{Worker: 0, AfterCompleted: 0}}},
	}
	report, prog, err := Run(context.Background(), pop, id, db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !prog.Workers[0].Crashed || prog.Workers[0].Completed != 0 {
		t.Fatalf("worker 0 should have died at 0 completions: %+v", prog.Workers[0])
	}
	if sum := workerCompleted(prog); sum != int64(len(pop)) {
		t.Fatalf("per-worker completions sum to %d, want the population %d", sum, len(pop))
	}
	if report.TableIV() != clean.TableIV() {
		t.Fatalf("crashed run's table differs from the fault-free run's:\n%s\n--\n%s", report.TableIV(), clean.TableIV())
	}
}

// TestAllWorkersCrashedStalls: when every worker dies the run reports
// ErrStalled and the partial report covers exactly the completed targets.
func TestAllWorkersCrashedStalls(t *testing.T) {
	pop, id, db := testEnv(t, 50)
	cfg := Config{
		Workers: 2,
		Seed:    19,
		Fault: &FaultPlan{
			WorkerCrashes: []WorkerCrash{{Worker: 0, AfterCompleted: 3}, {Worker: 1, AfterCompleted: 3}},
		},
	}
	report, prog, err := Run(context.Background(), pop, id, db, cfg)
	if !errors.Is(err, ErrStalled) {
		t.Fatalf("err = %v, want ErrStalled", err)
	}
	if prog.Completed >= len(pop) || prog.Completed < 6 {
		t.Fatalf("completed = %d, want a partial count >= 6", prog.Completed)
	}
	if report.Total != prog.Completed {
		t.Fatalf("partial report covers %d targets, progress says %d", report.Total, prog.Completed)
	}
}

// TestResumeFingerprintMismatch: resuming a checkpoint written under a
// different config fails loudly instead of merging incompatible outcomes.
func TestResumeFingerprintMismatch(t *testing.T) {
	pop, id, db := testEnv(t, 30)
	dir := t.TempDir()
	if _, _, err := Run(context.Background(), pop, id, db, Config{Workers: 2, Seed: 23, Checkpoint: dir}); err != nil {
		t.Fatal(err)
	}
	_, err := New(pop, id, db, Config{Workers: 2, Seed: 24, Checkpoint: dir, Resume: true})
	if !errors.Is(err, ErrFingerprint) {
		t.Fatalf("err = %v, want ErrFingerprint", err)
	}
	// Same config resumes cleanly -- and has nothing left to do.
	r, err := New(pop, id, db, Config{Workers: 2, Seed: 23, Checkpoint: dir, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	prog := r.Progress()
	if prog.Resumed != len(pop) || prog.Probes != 0 {
		t.Fatalf("fully-resumed run should not probe: %+v", prog)
	}
}

// TestResumeAtAnotherBudgetRefused: the fingerprint covers the budget
// the targets are probed at -- the model's -- so a checkpoint written for
// a model served at one budget never merges into a run at another.
func TestResumeAtAnotherBudgetRefused(t *testing.T) {
	pop, lean, db := testEnv(t, 20)
	dir := t.TempDir()
	if _, _, err := Run(context.Background(), pop, lean, db, Config{Workers: 2, Seed: 23, Checkpoint: dir}); err != nil {
		t.Fatal(err)
	}
	paper := core.NewIdentifierAt(stubClassifier{}, probe.Paper)
	if _, err := New(pop, paper, db, Config{Workers: 2, Seed: 23, Checkpoint: dir, Resume: true}); !errors.Is(err, ErrFingerprint) {
		t.Fatalf("resuming a lean-budget checkpoint at probe.Paper: err = %v, want ErrFingerprint", err)
	}
}

// TestRetryEscalatesResolvedBudget: the first attempt probes at the
// model's resolved budget, and retries grow its pre-timeout rounds by 50%
// per attempt -- for the default budget and for probe.Paper alike.
func TestRetryEscalatesResolvedBudget(t *testing.T) {
	for _, budget := range []probe.Config{{}, probe.Paper} {
		id := core.NewIdentifierAt(nil, budget)
		c := &Coordinator{id: id}
		if got := c.probeConfig(0); !reflect.DeepEqual(got, id.Probe()) {
			t.Errorf("attempt 0 of %+v: %+v, want the model's budget %+v", budget, got, id.Probe())
		}
		base := budget.Resolved().MaxPreRounds
		if got, want := c.probeConfig(1).MaxPreRounds, base*3/2; got != want {
			t.Errorf("attempt 1 of %+v: MaxPreRounds %d, want 1.5 x %d = %d", budget, got, base, want)
		}
	}
}
