package shard

import (
	"context"
	"errors"
	"reflect"
	"sync"
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
	cfg.BackoffBase = time.Microsecond
	cfg.BackoffMax = 50 * time.Microsecond
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
		if !reflect.DeepEqual(got.Outcomes, want.Outcomes) {
			t.Fatalf("workers=%d: outcomes differ from census.Run", workers)
		}
		if got.TableIV() != want.TableIV() {
			t.Fatalf("workers=%d: tables differ:\n%s\n--\n%s", workers, got.TableIV(), want.TableIV())
		}
	}
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
	interrupted.beforeProbe = func(_, _, _ int, _ time.Time) {
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

// fakeClock is a deterministic time source: sleeps advance it instantly,
// so pacing tests assert real token-bucket spacing without waiting.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) sleep(_ context.Context, d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// TestPerTargetRateLimitHonored drives retries at the same targets and
// asserts no target is ever probed above its token-bucket rate, with the
// limiter's interventions visible in the RateLimitWaits counter.
func TestPerTargetRateLimitHonored(t *testing.T) {
	pop, id, db := testEnv(t, 40)
	clock := &fakeClock{t: time.Unix(1_700_000_000, 0)}
	const interval = 10 * time.Millisecond

	var mu sync.Mutex
	probeTimes := map[int][]time.Time{}

	cfg := Config{
		Workers:        2,
		Seed:           13,
		TargetInterval: interval,
		// Backoff far below the target interval, so only the token bucket
		// can keep retry spacing legal.
		BackoffBase: time.Microsecond,
		BackoffMax:  2 * time.Microsecond,
		Fault:       &FaultPlan{Seed: 21, ProbeErrorRate: 0.5},
		nowFn:       clock.now,
		sleepFn:     clock.sleep,
		beforeProbe: func(_, target, _ int, now time.Time) {
			mu.Lock()
			probeTimes[target] = append(probeTimes[target], now)
			mu.Unlock()
		},
	}
	_, prog, err := Run(context.Background(), pop, id, db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if prog.RateLimitWaits == 0 {
		t.Fatal("token bucket never intervened; the test proves nothing")
	}
	if prog.Retries == 0 {
		t.Fatal("no retries injected; per-target spacing untested")
	}
	for target, times := range probeTimes {
		for i := 1; i < len(times); i++ {
			if gap := times[i].Sub(times[i-1]); gap < interval {
				t.Fatalf("target %d probed %v apart, want >= %v", target, gap, interval)
			}
		}
	}
}

// TestWorkerCrashBacklogStolen: a worker that dies immediately loses no
// work -- survivors steal its entire shard.
func TestWorkerCrashBacklogStolen(t *testing.T) {
	pop, id, db := testEnv(t, 60)
	cfg := Config{
		Workers: 3,
		Seed:    17,
		Fault:   &FaultPlan{Seed: 1, WorkerCrashes: []WorkerCrash{{Worker: 0, AfterCompleted: 0}}},
	}
	report, prog, err := Run(context.Background(), pop, id, db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if report.Total != len(pop) || prog.Completed != len(pop) {
		t.Fatalf("crash dropped work: %+v", prog)
	}
	if !prog.Workers[0].Crashed || prog.Workers[0].Completed != 0 {
		t.Fatalf("worker 0 should have died at 0 completions: %+v", prog.Workers[0])
	}
	if prog.Workers[0].Assigned == 0 {
		t.Fatal("worker 0 had no shard; crash test proves nothing")
	}
	if prog.Steals == 0 {
		t.Fatal("no steals recorded while absorbing a dead worker's shard")
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

// TestRetryEscalatesResolvedBudget: retries grow the pre-timeout rounds
// from the budget the first attempt actually ran -- the prober's resolved
// default when the config leaves it zero -- by 50% per attempt.
func TestRetryEscalatesResolvedBudget(t *testing.T) {
	base := probe.Config{}.Resolved().MaxPreRounds
	for _, tc := range []struct {
		cfg  probe.Config
		base int
	}{{probe.Config{}, base}, {probe.Paper, probe.Paper.MaxPreRounds}} {
		c := &Coordinator{cfg: Config{Probe: tc.cfg}}
		if got := c.probeConfig(0); got.MaxPreRounds != tc.cfg.MaxPreRounds {
			t.Errorf("attempt 0 of %+v: MaxPreRounds %d, want the config's own %d", tc.cfg, got.MaxPreRounds, tc.cfg.MaxPreRounds)
		}
		if got, want := c.probeConfig(1).MaxPreRounds, tc.base*3/2; got != want {
			t.Errorf("attempt 1 of %+v: MaxPreRounds %d, want 1.5 x %d = %d", tc.cfg, got, tc.base, want)
		}
	}
}

// TestRingProperties: deterministic, reasonably balanced, and stable
// under worker-count changes.
func TestRingProperties(t *testing.T) {
	pop, _, _ := testEnv(t, 2000)
	r4, r4b, r5 := newRing(4), newRing(4), newRing(5)
	counts := make([]int, 4)
	moved := 0
	for i := range pop {
		key := pop[i].Server.Name
		w := r4.owner(key)
		if w != r4b.owner(key) {
			t.Fatal("ring assignment not deterministic")
		}
		counts[w]++
		if r5.owner(key) != w {
			moved++
		}
	}
	for w, n := range counts {
		if n < 2000/4/3 {
			t.Fatalf("worker %d got %d of 2000 targets; ring badly unbalanced: %v", w, n, counts)
		}
	}
	// Growing 4 -> 5 workers should remap roughly 1/5 of targets, not
	// reshuffle everything (the consistent-hashing point).
	if moved > 2000/2 {
		t.Fatalf("adding one worker moved %d of 2000 targets", moved)
	}
}
