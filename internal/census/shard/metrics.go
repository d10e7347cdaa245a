package shard

import "repro/internal/telemetry"

// Metrics is an optional external telemetry sink for a sharded census:
// the service wires one per process so /metrics aggregates every census
// job, while the coordinator's own Progress() reports per-run values.
// All fields follow the telemetry package's lock-free, zero-allocation
// contract, so mirroring them adds no synchronization to the hot path.
type Metrics struct {
	// Probes counts real probe executions (injected faults excluded).
	Probes telemetry.Counter
	// Retries counts probe attempts re-queued after an injected timeout.
	Retries telemetry.Counter
	// Deferrals counts rate-limited attempts pushed back without
	// consuming a probe attempt.
	Deferrals telemetry.Counter
	// BackoffNanos accumulates scheduled retry/deferral backoff delay.
	BackoffNanos telemetry.Counter
	// TargetsAbandoned counts targets given up on (retries exhausted,
	// deferral budget exhausted, or permanently unreachable).
	TargetsAbandoned telemetry.Counter
	// CheckpointWrites and CheckpointFailures count durable record
	// appends and failed ones (injected or real).
	CheckpointWrites   telemetry.Counter
	CheckpointFailures telemetry.Counter
	// WorkerCrashes counts injected worker deaths.
	WorkerCrashes telemetry.Counter
	// Attempts is the per-target distribution of contact attempts
	// consumed (1 = first-try success).
	Attempts telemetry.CountHist
}

// Progress is a point-in-time snapshot of a sharded census run, safe to
// marshal (the service's census job status embeds it).
type Progress struct {
	// Targets is the population size; Completed counts targets with a
	// final outcome (probed, resumed, or abandoned); Resumed counts those
	// restored from the checkpoint rather than probed in this run.
	Targets   int `json:"targets"`
	Completed int `json:"completed"`
	Resumed   int `json:"resumed"`

	Probes           int64 `json:"probes"`
	Retries          int64 `json:"retries"`
	Deferrals        int64 `json:"deferrals"`
	TargetsAbandoned int64 `json:"targets_abandoned"`

	// Steals is always 0: every worker pops the one shared queue, so no
	// worker takes work from another.
	//
	// Deprecated: kept only while the end-to-end benchmark
	// (e2ebench/workloads.go) still reads it.
	Steals int64 `json:"steals"`

	// BackoffSeconds is the total scheduled backoff delay.
	BackoffSeconds float64 `json:"backoff_seconds"`

	CheckpointWrites   int64 `json:"checkpoint_writes"`
	CheckpointFailures int64 `json:"checkpoint_failures"`
	// CheckpointSkipped counts torn trailing records dropped on resume.
	CheckpointSkipped int `json:"checkpoint_skipped,omitempty"`

	// Attempts is the per-target contact-attempt distribution.
	Attempts telemetry.CountHistSnapshot `json:"attempts"`

	// Workers reports per-worker completion counts and injected crashes.
	Workers []WorkerProgress `json:"workers"`
}

// WorkerProgress is one worker's slice of a Progress snapshot.
type WorkerProgress struct {
	// Completed counts targets the worker finished.
	Completed int64 `json:"completed"`
	// Crashed reports an injected death.
	Crashed bool `json:"crashed"`
}
