package engine

import (
	"context"
	"math/rand"
	"sync"

	"repro/internal/netem"
	"repro/internal/probe"
	"repro/internal/websim"
	"repro/internal/xrand"
)

// Job is one identification request: probe one server under one network
// condition. Seed, when non-zero, pins the job's randomness; otherwise the
// batch derives a per-job seed from BatchConfig.Seed and the job index, so
// results are reproducible and independent of worker scheduling either way.
type Job struct {
	Server *websim.Server
	Cond   netem.Condition
	Seed   int64
}

// Result pairs a job with its outcome. Index is the job's position in the
// input slice (results are also returned in input order).
type Result[R any] struct {
	Index int
	Job   Job
	Out   R
}

// Identifier abstracts core.Identifier (or any compatible pipeline) for
// batching without an import cycle: core depends on the engine's pool, so
// the engine cannot depend on core's types.
type Identifier[R any] interface {
	Identify(server *websim.Server, cond netem.Condition, cfg probe.Config, rng *rand.Rand) R
}

// BlockIdentifier is a per-worker pipeline session that buffers its
// results under the caller's tags: IdentifyBatch gathers one job into it
// and flushes it at once (core.BlockSession is the pipeline
// implementation). Implementations must be equivalent to Identifier job
// for job.
type BlockIdentifier[R any] interface {
	// Gather runs one job and buffers its result under tag.
	Gather(tag int, server *websim.Server, cond netem.Condition, cfg probe.Config, rng *rand.Rand)
	// Flush emits each buffered (tag, result) in gather order, leaving
	// the session empty. Flushing an empty session is a no-op.
	Flush(emit func(tag int, out R))
}

// BatchConfig controls IdentifyBatch.
type BatchConfig[R any] struct {
	// Ctx, when non-nil, cancels the batch: once Ctx is done no further
	// jobs are started (in-flight probes finish) and the Result slots of
	// jobs that never ran are left zero -- their Job.Server is nil and
	// OnResult was never called for them. A nil Ctx never cancels.
	Ctx context.Context
	// Parallelism bounds concurrent probes; 0 = DefaultParallelism.
	Parallelism int
	// Probe is the probe budget (zero fields resolve to the served lean
	// budget); serve a model at the budget it was trained at.
	Probe probe.Config
	// Seed derives per-job seeds for jobs that leave Job.Seed zero.
	Seed int64
	// OnResult, when set, streams each result as its probe completes
	// (completion order, not input order), on the worker that ran it and
	// before that worker starts its next job. Calls are serialized; the
	// callback must not block for long or it stalls the pool.
	OnResult func(Result[R])
	// NewWorkerBlock, when set, is called once per pool worker; its
	// session runs that worker's jobs instead of the shared identifier,
	// which runs them otherwise.
	// Pipelines use it to give every worker private reusable scratch
	// (probe buffers, feature scratch) without locks. Each session must
	// produce results identical to the shared identifier -- job outcomes
	// must not depend on which worker ran them.
	NewWorkerBlock func() BlockIdentifier[R]
}

// jobSeedStride spaces derived per-job seeds (a prime, like the strides
// used elsewhere in the pipeline, so neighbouring jobs never share RNG
// streams).
const jobSeedStride = 15485863

// IdentifyBatch probes every job on the worker pool and returns the
// results in input order. Each job runs with its own deterministically
// seeded RNG, so a batch's output is a pure function of (jobs, cfg.Seed)
// regardless of cfg.Parallelism or scheduling. Each worker gathers one
// job into its session and flushes it at once, so OnResult fires for a
// job before its worker starts the next. Set cfg.Ctx to make the batch
// cancellable (see BatchConfig.Ctx for the partial-result contract).
func IdentifyBatch[R any](id Identifier[R], jobs []Job, cfg BatchConfig[R]) []Result[R] {
	ctx := cfg.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	results := make([]Result[R], len(jobs))
	jobSeed := func(i int) int64 {
		if s := jobs[i].Seed; s != 0 {
			return s
		}
		return cfg.Seed + int64(i+1)*jobSeedStride
	}
	// One RNG per worker, reseeded between jobs: a job's stream depends
	// only on its seed, so reseeding is indistinguishable from a fresh
	// xrand.New -- without two allocations per job.
	workers := Workers(len(jobs), cfg.Parallelism)
	rngs := make([]*rand.Rand, workers)
	blocks := make([]BlockIdentifier[R], workers)
	for w := range blocks {
		rngs[w] = xrand.New(0)
		if cfg.NewWorkerBlock != nil {
			blocks[w] = cfg.NewWorkerBlock()
		}
	}
	// Result slots are disjoint; only OnResult needs serializing. It runs
	// on the worker that finished the job, before that worker's next job,
	// so the lock is held across the callback: mu is local to this call,
	// and the callback cannot reach it.
	var mu sync.Mutex
	commit := func(tag int, out R) {
		results[tag] = Result[R]{Index: tag, Job: jobs[tag], Out: out}
		if cfg.OnResult != nil {
			mu.Lock()
			cfg.OnResult(results[tag])
			mu.Unlock()
		}
	}
	RunWorkers(ctx, len(jobs), cfg.Parallelism, func(w, i int) {
		xrand.Reseed(rngs[w], jobSeed(i))
		if blocks[w] == nil {
			commit(i, id.Identify(jobs[i].Server, jobs[i].Cond, cfg.Probe, rngs[w]))
			return
		}
		blocks[w].Gather(i, jobs[i].Server, jobs[i].Cond, cfg.Probe, rngs[w])
		blocks[w].Flush(commit)
	})
	return results
}
