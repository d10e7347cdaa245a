// Package shard rebuilds the census as a coordinator/worker system
// hardened against partial failure, for the paper's Section VII workload:
// a long-lived campaign over tens of thousands of targets where probes
// time out, targets rate-limit, workers die, and the process itself may
// be killed and restarted.
//
// The coordinator puts the population on one channel that N workers
// receive from, so a crashed worker simply stops receiving and the
// survivors finish the rest. Failures follow a three-way taxonomy:
// timeouts retry with a longer probe budget under exponential backoff
// with jitter, rate-limited attempts are deferred without consuming a
// retry, and permanently unreachable targets are abandoned with the
// reason recorded in the census report's InvalidByReason. A target in
// backoff waits on a timer, not on a worker, and re-enters the channel
// when its timer fires. Completed targets stream to an append-only JSONL
// checkpoint with an atomic manifest, so a killed census resumes where
// it stopped.
//
// Everything is deterministic by construction: probe outcomes derive from
// per-(target, attempt) seeds and injected faults (FaultPlan) from
// per-(target, trial) seeds, never from shared streams, and tables
// aggregate in population order. A run that crashes, resumes, loses
// checkpoint writes, or hands work to different workers therefore
// produces bit-identical Table IV output to an uninterrupted run with the
// same seed -- the contract the determinism-under-failure tests enforce.
package shard

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/census"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/netem"
	"repro/internal/probe"
	"repro/internal/telemetry"
	"repro/internal/xrand"
)

// Abandonment reasons, surfaced through Report.InvalidByReason so
// given-up targets are accounted for rather than silently dropped.
const (
	// ReasonRetriesExhausted marks a target whose probe attempts all
	// timed out.
	ReasonRetriesExhausted = probe.InvalidReason("abandoned: retries exhausted")
	// ReasonDeferralsExhausted marks a target that stayed rate-limited
	// past the deferral budget.
	ReasonDeferralsExhausted = probe.InvalidReason("abandoned: deferral budget exhausted")
	// ReasonUnreachable marks a permanently unreachable target.
	ReasonUnreachable = probe.InvalidReason("abandoned: unreachable")
)

// Config controls a sharded census run.
type Config struct {
	// Workers is the worker count; 0 = engine default parallelism,
	// clamped to the population size.
	Workers int
	// Seed drives probing exactly like census.Run's seed: a shard run
	// with no faults is outcome-identical to census.Run with the same
	// seed. Targets are probed at the model's budget (the
	// identifier's Probe); retries grow its MaxPreRounds by 50% per
	// attempt.
	Seed int64

	// MaxAttempts bounds probe attempts per target before abandoning
	// (default 4). MaxDeferrals bounds rate-limit deferrals (default 8).
	MaxAttempts  int
	MaxDeferrals int

	// Checkpoint is a directory for incremental checkpointing ("" =
	// disabled). Resume loads completed targets from it before running.
	Checkpoint string
	Resume     bool

	// Fault is the deterministic fault-injection plan (nil = none).
	Fault *FaultPlan

	// Metrics, when non-nil, mirrors every counter into an external
	// telemetry sink (the service aggregates all census jobs this way).
	Metrics *Metrics

	// Trace/TraceID, when both set, record the retry taxonomy into the
	// flight recorder under the campaign's trace: one retry event per
	// re-queued timeout (arg: attempt) and one deferral event per
	// rate-limit push-back (arg: deferral count).
	Trace   *telemetry.Flight
	TraceID telemetry.TraceID

	// Test hooks: backoff shape and pre-probe observer. The backoff
	// between attempts is min(backoffBase * 2^(n-1), backoffMax), scaled
	// by a deterministic jitter in [0.5, 1.5); zero means the defaults,
	// 100ms and 5s. In-package tests shrink it so fault-heavy runs do not
	// sleep real milliseconds.
	backoffBase time.Duration
	backoffMax  time.Duration
	beforeProbe func()
}

const (
	defaultMaxAttempts  = 4
	defaultMaxDeferrals = 8
	defaultBackoffBase  = 100 * time.Millisecond
	defaultBackoffMax   = 5 * time.Second
)

func (c Config) workerCount(targets int) int {
	return engine.Workers(targets, c.Workers)
}

func (c Config) maxAttempts() int {
	if c.MaxAttempts > 0 {
		return c.MaxAttempts
	}
	return defaultMaxAttempts
}

func (c Config) maxDeferrals() int {
	if c.MaxDeferrals > 0 {
		return c.MaxDeferrals
	}
	return defaultMaxDeferrals
}

// ErrStalled reports a run whose workers all crashed with work pending.
var ErrStalled = errors.New("shard: census stalled: every worker exited with targets pending")

// task is one pending target: attempt counts consumed probe attempts,
// deferrals counts rate-limit bounces.
type task struct {
	idx       int
	attempt   int
	deferrals int
}

// Coordinator owns one sharded census run. Build with New, drive with
// Run; Progress and Report are safe to call concurrently with Run (the
// service polls them for job status and partial tables).
type Coordinator struct {
	cfg Config
	pop []census.GroundTruth
	id  *core.Identifier
	db  *netem.Database

	// queue holds the targets ready to probe. It is buffered to the
	// pending count and each pending target is in it, in a worker, or on
	// a backoff timer, so a send never blocks. Which worker takes a
	// target never changes its outcome, so one channel is all the
	// scheduling the census needs.
	queue chan task
	// finished is closed by the finish that completes the last target.
	finished chan struct{}

	outcomes []census.Outcome
	done     []atomic.Bool
	resumed  int
	skipped  int

	remaining  atomic.Int64
	completed  atomic.Int64
	workerDone []atomic.Int64
	crashed    []atomic.Bool

	ckpt *checkpointWriter

	m   Metrics  // per-run counters, feeds Progress
	ext *Metrics // optional shared sink (cfg.Metrics)

	ran atomic.Bool
}

// New validates the config, loads any resumable checkpoint, and queues
// the remaining targets in population order.
func New(pop []census.GroundTruth, id *core.Identifier, db *netem.Database, cfg Config) (*Coordinator, error) {
	if len(pop) == 0 {
		return nil, errors.New("shard: empty population")
	}
	if err := cfg.Fault.validate(); err != nil {
		return nil, err
	}
	nw := cfg.workerCount(len(pop))
	c := &Coordinator{
		cfg:        cfg,
		pop:        pop,
		id:         id,
		db:         db,
		outcomes:   make([]census.Outcome, len(pop)),
		done:       make([]atomic.Bool, len(pop)),
		workerDone: make([]atomic.Int64, nw),
		crashed:    make([]atomic.Bool, nw),
		ext:        cfg.Metrics,
	}

	fp := fingerprint(cfg, id.Probe(), len(pop))
	if cfg.Checkpoint != "" && cfg.Resume {
		m, recs, skipped, err := LoadCheckpoint(cfg.Checkpoint)
		switch {
		case errors.Is(err, os.ErrNotExist):
			// First run with -resume: nothing to restore.
		case err != nil:
			return nil, err
		case m.Version != 0:
			if m.Fingerprint != fp {
				return nil, fmt.Errorf("%w (checkpoint %s, config %s)", ErrFingerprint, m.Fingerprint, fp)
			}
			for _, rec := range recs {
				c.outcomes[rec.I] = census.Outcome{Truth: pop[rec.I], ID: rec.identification()}
				if !c.done[rec.I].Swap(true) {
					c.resumed++
				}
			}
			c.skipped = skipped
		}
	}
	if cfg.Checkpoint != "" {
		failEvery := 0
		if cfg.Fault != nil {
			failEvery = cfg.Fault.CheckpointFailEvery
		}
		w, err := openCheckpoint(cfg.Checkpoint,
			Manifest{Version: manifestVersion, Fingerprint: fp, Targets: len(pop)}, failEvery)
		if err != nil {
			return nil, err
		}
		c.ckpt = w
	}

	c.queue = make(chan task, len(pop)-c.resumed)
	c.finished = make(chan struct{})
	for i := range pop {
		if !c.done[i].Load() {
			c.queue <- task{idx: i}
		}
	}
	c.remaining.Store(int64(len(pop) - c.resumed))
	c.completed.Store(int64(c.resumed))
	return c, nil
}

// Run drives the workers until every target has an outcome, the context
// is cancelled, or every worker has crashed. It may be called once.
func (c *Coordinator) Run(ctx context.Context) error {
	if c.ran.Swap(true) {
		return errors.New("shard: coordinator already ran")
	}
	if c.ckpt != nil {
		defer c.ckpt.close()
	}
	if c.remaining.Load() == 0 {
		return nil
	}
	var wg sync.WaitGroup
	for w := range c.workerDone {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c.worker(ctx, w, c.id.NewSession())
		}(w)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}
	if c.remaining.Load() > 0 {
		return ErrStalled
	}
	return nil
}

// worker is one worker's loop: take targets from the queue until the
// census is done or cancelled, blocking while every pending target is
// backing off, and die on schedule when the fault plan says so.
func (c *Coordinator) worker(ctx context.Context, w int, sess *core.Session) {
	crashAfter := c.cfg.Fault.crashAfter(w)
	for {
		// The crash check precedes the done check: a worker scheduled to
		// die at k completions dies even if the census finishes first, so
		// chaos runs always record the planned crash.
		if crashAfter >= 0 && c.workerDone[w].Load() >= int64(crashAfter) {
			if !c.crashed[w].Swap(true) {
				c.bump(func(m *Metrics) *telemetry.Counter { return &m.WorkerCrashes }, 1)
			}
			return
		}
		if ctx.Err() != nil {
			return
		}
		select {
		case t := <-c.queue:
			c.process(ctx, w, t, sess)
		case <-c.finished:
			return
		case <-ctx.Done():
			return
		}
	}
}

// process runs one task trial: injected faults, then the real probe.
// Transient failures requeue; everything else finishes the target.
func (c *Coordinator) process(ctx context.Context, w int, t task, sess *core.Session) {
	trial := t.attempt + t.deferrals
	if d := c.cfg.Fault.spike(t.idx, trial); d > 0 {
		sleep(ctx, d)
		if ctx.Err() != nil {
			return
		}
	}
	switch c.cfg.Fault.decide(t.idx, trial) {
	case failUnreachable:
		c.bump(func(m *Metrics) *telemetry.Counter { return &m.TargetsAbandoned }, 1)
		c.finish(w, t.idx, trial+1, core.Identification{Reason: ReasonUnreachable})

	case failTimeout:
		t.attempt++
		if t.attempt >= c.cfg.maxAttempts() {
			c.bump(func(m *Metrics) *telemetry.Counter { return &m.TargetsAbandoned }, 1)
			c.finish(w, t.idx, trial+1, core.Identification{Reason: ReasonRetriesExhausted})
			return
		}
		c.bump(func(m *Metrics) *telemetry.Counter { return &m.Retries }, 1)
		c.cfg.Trace.Event(c.cfg.TraceID, telemetry.EventRetry, uint64(t.attempt))
		c.requeueAfter(t, c.backoffDelay(t.idx, t.attempt, 0))

	case failRateLimited:
		t.deferrals++
		if t.deferrals >= c.cfg.maxDeferrals() {
			c.bump(func(m *Metrics) *telemetry.Counter { return &m.TargetsAbandoned }, 1)
			c.finish(w, t.idx, trial+1, core.Identification{Reason: ReasonDeferralsExhausted})
			return
		}
		c.bump(func(m *Metrics) *telemetry.Counter { return &m.Deferrals }, 1)
		c.cfg.Trace.Event(c.cfg.TraceID, telemetry.EventDeferral, uint64(t.deferrals))
		c.requeueAfter(t, c.backoffDelay(t.idx, t.deferrals, 1))

	default:
		rng := c.probeRNG(t.idx, t.attempt)
		cond := c.db.Sample(rng)
		if f := c.cfg.beforeProbe; f != nil {
			f()
		}
		// Pristine ssthresh cache per identification (see census.Run):
		// without this, a target re-probed after a lost checkpoint record
		// would see state from the pre-crash probe and the resumed tables
		// could drift from the uninterrupted run's.
		c.pop[t.idx].Server.ResetCache()
		ident := sess.Identify(c.pop[t.idx].Server, cond, c.probeConfig(t.attempt), rng)
		c.bump(func(m *Metrics) *telemetry.Counter { return &m.Probes }, 1)
		c.finish(w, t.idx, trial+1, ident)
	}
}

// requeueAfter puts a retry/deferral back on the queue once delay has
// passed; until then the target holds no worker.
func (c *Coordinator) requeueAfter(t task, delay time.Duration) {
	c.bump(func(m *Metrics) *telemetry.Counter { return &m.BackoffNanos }, int64(delay))
	time.AfterFunc(delay, func() { c.queue <- t })
}

// backoffDelay is the deterministic exponential backoff with jitter for
// retry/deferral n (1-based) of target idx. kind salts the jitter stream
// (0 = retry, 1 = deferral).
func (c *Coordinator) backoffDelay(idx, n, kind int) time.Duration {
	d, ceil := c.cfg.backoffBase, c.cfg.backoffMax
	if d <= 0 {
		d = defaultBackoffBase
	}
	if ceil <= 0 {
		ceil = defaultBackoffMax
	}
	for i := 1; i < n && d < ceil; i++ {
		d *= 2
	}
	d = min(d, ceil)
	jitter := 0.5 + xrand.New(mix(c.cfg.Seed, int64(idx)|int64(kind+1)<<60, int64(n))).Float64()
	return time.Duration(float64(d) * jitter)
}

// probeRNG seeds attempt a of target i. Attempt 0 uses census.Run's exact
// per-target stream -- a fault-free shard run is outcome-identical to the
// sequential census -- and retries derive fresh independent streams.
func (c *Coordinator) probeRNG(i, attempt int) *rand.Rand {
	if attempt == 0 {
		return xrand.New(c.cfg.Seed + int64(i)*6700417)
	}
	return xrand.New(mix(c.cfg.Seed, int64(i), int64(1000+attempt)))
}

// probeConfig is the model's probe budget with the pre-timeout gathering
// grown 50% per retry: the timeout taxonomy assumes the target is slow,
// not silent.
func (c *Coordinator) probeConfig(attempt int) probe.Config {
	cfg := c.id.Probe()
	cfg.MaxPreRounds += attempt * cfg.MaxPreRounds / 2
	return cfg
}

// finish publishes a target's final outcome: the report slot, the
// attempt histogram, the checkpoint, and the progress counters.
func (c *Coordinator) finish(w, idx, attempts int, ident core.Identification) {
	c.outcomes[idx] = census.Outcome{Truth: c.pop[idx], ID: ident}
	c.done[idx].Store(true)
	c.m.Attempts.Observe(int64(attempts))
	if c.ext != nil {
		c.ext.Attempts.Observe(int64(attempts))
	}
	if c.ckpt != nil {
		if err := c.ckpt.append(recordOf(idx, attempts, ident)); err != nil {
			// Durability degraded, correctness intact: the outcome stays
			// in memory and a resume re-probes it deterministically.
			c.bump(func(m *Metrics) *telemetry.Counter { return &m.CheckpointFailures }, 1)
		} else {
			c.bump(func(m *Metrics) *telemetry.Counter { return &m.CheckpointWrites }, 1)
		}
	}
	c.workerDone[w].Add(1)
	c.completed.Add(1)
	if c.remaining.Add(-1) == 0 {
		close(c.finished)
	}
}

// bump adds n to one counter in the per-run metrics and mirrors it into
// the shared sink when configured.
func (c *Coordinator) bump(get func(*Metrics) *telemetry.Counter, n int64) {
	get(&c.m).Add(n)
	if c.ext != nil {
		get(c.ext).Add(n)
	}
}

// sleep waits d or until ctx is done, whichever comes first.
func sleep(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

// Progress snapshots the run. Safe to call concurrently with Run.
func (c *Coordinator) Progress() Progress {
	p := Progress{
		Targets:            len(c.pop),
		Completed:          int(c.completed.Load()),
		Resumed:            c.resumed,
		Probes:             c.m.Probes.Load(),
		Retries:            c.m.Retries.Load(),
		Deferrals:          c.m.Deferrals.Load(),
		TargetsAbandoned:   c.m.TargetsAbandoned.Load(),
		BackoffSeconds:     float64(c.m.BackoffNanos.Load()) / float64(time.Second),
		CheckpointWrites:   c.m.CheckpointWrites.Load(),
		CheckpointFailures: c.m.CheckpointFailures.Load(),
		CheckpointSkipped:  c.skipped,
		Attempts:           c.m.Attempts.Snapshot(),
	}
	p.Workers = make([]WorkerProgress, len(c.workerDone))
	for w := range c.workerDone {
		p.Workers[w] = WorkerProgress{
			Completed: c.workerDone[w].Load(),
			Crashed:   c.crashed[w].Load(),
		}
	}
	return p
}

// Report aggregates the targets completed so far, in population order.
// After a clean Run it is the full census report (Total = population);
// mid-run or after an interrupted one it covers completed targets only,
// which is how the service serves partial demographic tables.
func (c *Coordinator) Report() *census.Report {
	outcomes := make([]census.Outcome, 0, c.completed.Load())
	for i := range c.done {
		if c.done[i].Load() {
			outcomes = append(outcomes, c.outcomes[i])
		}
	}
	return census.Aggregate(outcomes)
}

// Run shards, probes, and aggregates in one call: the sharded
// counterpart of census.Run, returning the (possibly partial) report,
// final progress, and the run error.
func Run(ctx context.Context, pop []census.GroundTruth, id *core.Identifier, db *netem.Database, cfg Config) (*census.Report, Progress, error) {
	c, err := New(pop, id, db, cfg)
	if err != nil {
		return nil, Progress{}, err
	}
	err = c.Run(ctx)
	return c.Report(), c.Progress(), err
}
