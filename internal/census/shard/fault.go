package shard

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"repro/internal/xrand"
)

// FaultPlan is the deterministic fault-injection harness of a sharded
// census: every decision is a pure function of (plan seed, target index,
// trial number), so a chaos run is exactly reproducible in CI regardless
// of worker scheduling -- and, critically, a killed-and-resumed run under
// the same plan replays the same faults and converges to the same tables
// as an uninterrupted one.
//
// The zero value injects nothing.
type FaultPlan struct {
	// Seed drives every fault decision. Two plans with equal knobs and
	// equal seeds inject identical fault sequences.
	Seed int64 `json:"seed"`

	// ProbeErrorRate is the per-trial probability that a probe attempt
	// fails with a transient timeout (the campaign-dominating failure mode
	// of live measurement: lossy paths, slow servers). Timeouts are
	// retried with a longer probe budget.
	ProbeErrorRate float64 `json:"probe_error_rate,omitempty"`

	// RateLimitRate is the per-trial probability that a probe attempt is
	// bounced by the target's rate limiter. Rate-limited attempts are
	// deferred with backoff and do not consume a probe attempt.
	RateLimitRate float64 `json:"rate_limit_rate,omitempty"`

	// UnreachableRate is the per-target probability that a target is
	// permanently unreachable: the invalid-forever class, abandoned on
	// first contact and recorded under ReasonUnreachable.
	UnreachableRate float64 `json:"unreachable_rate,omitempty"`

	// LatencySpikeRate injects a pre-probe latency spike of LatencySpikeMs
	// on that fraction of trials. Spikes slow the run without changing any
	// outcome, so other workers take the queue's next targets meanwhile.
	LatencySpikeRate float64 `json:"latency_spike_rate,omitempty"`
	LatencySpikeMs   float64 `json:"latency_spike_ms,omitempty"`

	// WorkerCrashes kills coordinator workers mid-run: worker Worker stops
	// after completing AfterCompleted targets. Workers share one queue, so
	// the survivors finish every target the dead worker would have taken.
	WorkerCrashes []WorkerCrash `json:"worker_crashes,omitempty"`

	// CheckpointFailEvery fails every Nth checkpoint append (the write
	// error is swallowed and counted; the outcome stays in memory and is
	// simply re-probed after a resume). 0 disables.
	CheckpointFailEvery int `json:"checkpoint_fail_every,omitempty"`
}

// WorkerCrash schedules one deterministic worker death.
type WorkerCrash struct {
	// Worker is the coordinator worker index to kill.
	Worker int `json:"worker"`
	// AfterCompleted is how many targets the worker completes first.
	AfterCompleted int `json:"after_completed"`
}

// failureKind classifies one injected fault, driving the retry taxonomy.
type failureKind int

const (
	failNone        failureKind = iota
	failTimeout                 // transient: retry with a longer probe budget
	failRateLimited             // transient: back off and defer, attempt not consumed
	failUnreachable             // permanent: abandon and record why
)

// mix folds (seed, a, b) through a SplitMix64 finalizer into an
// independent derived seed: the per-(target, trial) decision streams and
// the per-(target, attempt) retry RNGs must not correlate with each other
// or with the probing streams.
func mix(seed, a, b int64) int64 {
	z := uint64(seed) + uint64(a)*0x9E3779B97F4A7C15 + uint64(b)*0xC2B2AE3D27D4EB4F + 0x165667B19E3779F9
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// decide classifies trial number `trial` of target i. Trials count every
// contact attempt (probe attempts and rate-limit bounces alike) so the
// decision stream advances whatever the outcome of the previous trial.
func (p *FaultPlan) decide(i, trial int) failureKind {
	if p == nil {
		return failNone
	}
	if p.UnreachableRate > 0 {
		// Per-target, trial-independent: unreachable means every contact
		// fails, so the draw must not vary with the trial number.
		if xrand.New(mix(p.Seed, int64(i), -1)).Float64() < p.UnreachableRate {
			return failUnreachable
		}
	}
	if p.ProbeErrorRate <= 0 && p.RateLimitRate <= 0 {
		return failNone
	}
	r := xrand.New(mix(p.Seed, int64(i), int64(trial))).Float64()
	switch {
	case r < p.ProbeErrorRate:
		return failTimeout
	case r < p.ProbeErrorRate+p.RateLimitRate:
		return failRateLimited
	default:
		return failNone
	}
}

// spike returns the injected pre-probe latency for trial `trial` of
// target i (0 for most trials).
func (p *FaultPlan) spike(i, trial int) time.Duration {
	if p == nil || p.LatencySpikeRate <= 0 || p.LatencySpikeMs <= 0 {
		return 0
	}
	if xrand.New(mix(p.Seed, int64(i)|1<<62, int64(trial))).Float64() < p.LatencySpikeRate {
		return time.Duration(p.LatencySpikeMs * float64(time.Millisecond))
	}
	return 0
}

// crashAfter returns how many targets worker w completes before it dies,
// or -1 when w survives the whole run.
func (p *FaultPlan) crashAfter(w int) int {
	if p == nil {
		return -1
	}
	for _, c := range p.WorkerCrashes {
		if c.Worker == w {
			return c.AfterCompleted
		}
	}
	return -1
}

// Validate rejects plans whose knobs are outside their domains. The
// service pre-validates client-supplied plans at submission time so a bad
// plan is a 400, not a failed job.
func (p *FaultPlan) Validate() error { return p.validate() }

// validate rejects plans whose knobs are outside their domains.
func (p *FaultPlan) validate() error {
	if p == nil {
		return nil
	}
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"probe_error_rate", p.ProbeErrorRate},
		{"rate_limit_rate", p.RateLimitRate},
		{"unreachable_rate", p.UnreachableRate},
		{"latency_spike_rate", p.LatencySpikeRate},
	} {
		if f.v < 0 || f.v > 1 {
			return fmt.Errorf("fault plan: %s must be in [0, 1], got %v", f.name, f.v)
		}
	}
	if p.ProbeErrorRate+p.RateLimitRate > 1 {
		return fmt.Errorf("fault plan: probe_error_rate + rate_limit_rate must not exceed 1")
	}
	if p.LatencySpikeMs < 0 {
		return fmt.Errorf("fault plan: latency_spike_ms must be non-negative")
	}
	if p.CheckpointFailEvery < 0 {
		return fmt.Errorf("fault plan: checkpoint_fail_every must be non-negative")
	}
	for _, c := range p.WorkerCrashes {
		if c.Worker < 0 || c.AfterCompleted < 0 {
			return fmt.Errorf("fault plan: worker crash %+v must be non-negative", c)
		}
	}
	return nil
}

// LoadFaultPlan reads a FaultPlan from a JSON file (the -fault-plan flag
// of cmd/caai-census). Unknown fields are rejected so a typoed knob fails
// loudly instead of silently injecting nothing.
func LoadFaultPlan(path string) (*FaultPlan, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var p FaultPlan
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&p); err != nil {
		return nil, fmt.Errorf("fault plan %s: %v", path, err)
	}
	if err := p.validate(); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return &p, nil
}
