// Package service turns the CAAI pipeline into a resident
// identification-as-a-service: an HTTP/JSON API layered on the engine
// worker pool. A Service loads trained models once (into a hot-swappable
// Registry), answers synchronous identifications on POST /v1/identify,
// runs large batches asynchronously through a bounded job queue feeding
// engine.IdentifyBatch (POST /v1/batch + GET /v1/jobs/{id}), memoizes
// results in an LRU keyed by (model version, server spec, condition
// fingerprint), and reports its own health and counters on GET /healthz
// and GET /metrics.
package service

import (
	"context"
	"fmt"
	"log/slog"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/eval"
	"repro/internal/netem"
	"repro/internal/probe"
	"repro/internal/telemetry"
	"repro/internal/websim"
	"repro/internal/xrand"
)

// Config tunes a Service. The zero value of every field is usable.
type Config struct {
	// CacheSize bounds the LRU result cache; 0 means DefaultCacheSize,
	// negative disables caching.
	CacheSize int
	// QueueSize bounds the pending async batch jobs AND the synchronous
	// /v1/identify backlog (requests parked waiting for a probe slot);
	// 0 means DefaultQueueSize. Submissions beyond either bound are shed
	// with 429 + Retry-After.
	QueueSize int
	// Workers is how many batch jobs execute concurrently; 0 means 1.
	// Each running job fans its probes out on the engine pool.
	Workers int
	// Parallelism bounds the engine pool per running batch and the number
	// of concurrent synchronous /v1/identify probes (excess sync requests
	// queue on a semaphore rather than saturating the CPU); 0 = all CPUs.
	Parallelism int
	// MaxBatchJobs caps the jobs accepted in one POST /v1/batch; 0 means
	// DefaultMaxBatchJobs.
	MaxBatchJobs int
	// JobRetention bounds how many finished (done/failed/cancelled) jobs
	// stay pollable: once exceeded, the oldest-finished jobs are dropped
	// and their IDs answer 404. Keeps a resident server's memory bounded
	// under steady batch traffic. <= 0 means DefaultJobRetention.
	JobRetention int
	// MaxStreams bounds concurrent POST /v1/pcap/stream uploads (each
	// runs one decode-and-track goroutine over a bounded ingest ring);
	// excess requests are shed with 429. 0 means DefaultMaxStreams.
	MaxStreams int
	// TraceSampleN keeps a deterministic 1-in-N of normal-outcome traces
	// in the flight recorder's retained store (errors/UNSURE/slow are
	// always kept): 0 means telemetry.DefaultTraceSampleN, 1 keeps all,
	// negative keeps none of the normal traffic.
	TraceSampleN int
	// TraceSlow is the latency past which every trace is retained
	// regardless of outcome; 0 means telemetry.DefaultTraceSlow.
	TraceSlow time.Duration
	// TraceRetain bounds the retained-trace store (FIFO); 0 means
	// telemetry.DefaultTraceRetain.
	TraceRetain int
	// AccessLog, when non-nil, makes the trace middleware emit one
	// structured log line per request (id, method, route, status,
	// duration, bytes) -- the -log-requests behaviour, now inside the
	// service so the logged ID is the trace key.
	AccessLog *slog.Logger
}

// Service defaults.
const (
	DefaultCacheSize    = 4096
	DefaultQueueSize    = 64
	DefaultMaxBatchJobs = 10_000
	DefaultJobRetention = 256
	DefaultMaxStreams   = 4

	// Trace defaults re-exported so flag registration (cmd/caai-serve)
	// need not import internal/telemetry.
	DefaultTraceSampleN = telemetry.DefaultTraceSampleN
	DefaultTraceSlow    = telemetry.DefaultTraceSlow
)

func (c Config) withDefaults() Config {
	if c.CacheSize == 0 {
		c.CacheSize = DefaultCacheSize
	}
	if c.QueueSize <= 0 {
		c.QueueSize = DefaultQueueSize
	}
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.MaxBatchJobs <= 0 {
		c.MaxBatchJobs = DefaultMaxBatchJobs
	}
	if c.JobRetention <= 0 {
		c.JobRetention = DefaultJobRetention
	}
	if c.MaxStreams <= 0 {
		c.MaxStreams = DefaultMaxStreams
	}
	return c
}

// Service is a resident identification server. Create with New, wire
// Handler into an http.Server, and Close on shutdown.
type Service struct {
	cfg      Config
	registry *Registry
	cache    *resultCache
	metrics  *metrics
	// flight is the always-on trace recorder: every request's spans land
	// in its rings, tail sampling at completion decides which traces the
	// /v1/traces surface can still read back.
	flight *telemetry.Flight

	queue chan *job
	// syncSem bounds concurrent synchronous-path probes at
	// cfg.Parallelism, mirroring the engine pool bound on the batch path.
	syncSem chan struct{}
	// syncWaiting counts sync requests parked on (or acquiring) syncSem.
	// Bounded at cfg.QueueSize: past that, /v1/identify sheds load with
	// errQueueFull instead of stacking goroutines without limit.
	syncWaiting atomic.Int64
	// streamSem bounds concurrent capture-stream pipelines at
	// cfg.MaxStreams; acquisition is non-blocking (shed, don't park).
	streamSem chan struct{}

	// inflight coalesces concurrent identical sync identifications: the
	// first request probes, later ones wait for its result instead of
	// repeating the same deterministic work.
	inflightMu sync.Mutex
	inflight   map[string]*inflightCall

	jobMu    sync.Mutex
	jobs     map[string]*job
	finished []string // terminal job IDs, oldest first (retention queue)
	nextJob  int64

	// evalSummary holds the latest scenario-matrix evaluation summary
	// (see internal/eval), exposed through GET /metrics so operators see
	// the accuracy posture of the serving model next to its traffic
	// counters. The stored value is immutable after Set.
	evalMu      sync.RWMutex
	evalSummary *eval.Summary

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	// closeMu orders submissions against Close: submit enqueues under the
	// read lock, Close flips closed under the write lock, so every
	// accepted job is in the queue before the workers begin draining and
	// none can be stranded in "queued" by a racing shutdown.
	closeMu sync.RWMutex
	closed  bool
}

// New starts a Service answering with reg's models: cfg.Workers executor
// goroutines begin draining the batch queue immediately.
func New(reg *Registry, cfg Config) *Service {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	syncWidth := cfg.Parallelism
	if syncWidth <= 0 {
		syncWidth = engine.DefaultParallelism()
	}
	s := &Service{
		cfg:      cfg,
		registry: reg,
		cache:    newResultCache(cfg.CacheSize),
		flight: telemetry.NewFlight(telemetry.FlightConfig{
			SampleN: cfg.TraceSampleN,
			Slow:    cfg.TraceSlow,
			Retain:  cfg.TraceRetain,
		}),
		queue:     make(chan *job, cfg.QueueSize),
		syncSem:   make(chan struct{}, syncWidth),
		streamSem: make(chan struct{}, cfg.MaxStreams),
		inflight:  map[string]*inflightCall{},
		jobs:      map[string]*job{},
		ctx:       ctx,
		cancel:    cancel,
	}
	s.metrics = newMetrics(s)
	for w := 0; w < cfg.Workers; w++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Registry exposes the model registry (for reload tooling).
func (s *Service) Registry() *Registry { return s.registry }

// SetEvalSummary installs the latest scenario-matrix evaluation summary
// for GET /metrics (typically the newest ACCURACY_<n>.json point, loaded
// at startup by cmd/caai-serve -eval). The summary is copied; callers may
// keep mutating their value.
func (s *Service) SetEvalSummary(sum eval.Summary) {
	cp := sum
	cp.ScenarioAccuracy = make(map[string]float64, len(sum.ScenarioAccuracy))
	for k, v := range sum.ScenarioAccuracy {
		cp.ScenarioAccuracy[k] = v
	}
	s.evalMu.Lock()
	s.evalSummary = &cp
	s.evalMu.Unlock()
}

// Close stops the batch executors and cancels running jobs. In-flight
// probes finish; queued jobs are marked failed. Safe to call twice.
func (s *Service) Close() {
	s.closeMu.Lock()
	s.closed = true
	s.closeMu.Unlock()
	s.cancel()
	s.wg.Wait()
}

// Traces exposes the flight recorder (read-only surface for tooling and
// tests; the HTTP handlers go through it too).
func (s *Service) Traces() *telemetry.Flight { return s.flight }

// identify answers one job spec against the named model, consulting the
// result cache first. It is the shared core of the synchronous endpoint
// and the batch executor. ctx aborts waiting (on the singleflight leader
// or the semaphore) when the caller has gone away, so abandoned requests
// stop occupying probe slots.
func (s *Service) identify(ctx context.Context, modelName string, spec JobSpec) (IdentifyResponse, error) {
	model, err := s.registry.Get(modelName)
	if err != nil {
		return IdentifyResponse{}, err
	}
	spec = spec.normalize()
	// Validate before consulting the cache so rejected requests do not
	// skew the hit-rate counters.
	server, err := spec.Server.build()
	if err != nil {
		return IdentifyResponse{}, err
	}
	cond, err := spec.Condition.build()
	if err != nil {
		return IdentifyResponse{}, err
	}
	key := model.Version() + "|" + spec.fingerprint()

	// Span recording for the service-side stages: cache is the first
	// lookup's cost, queue_wait the time from then until a probe slot is
	// held (singleflight waits included -- that IS the queueing a coalesced
	// request experiences).
	tr := traceIDFrom(ctx)
	var clock telemetry.SpanClock
	var tm telemetry.StageTimings
	cacheStart := time.Now()
	clock.StartAt(cacheStart)
	firstLookup := true

	// Singleflight: identification is deterministic per key, so concurrent
	// identical requests share one probe. Followers count as cache hits
	// (they are served from memory); only the leader counts a miss. A
	// leader that aborts before probing (context cancelled at the
	// semaphore) closes done without a result; waiting followers then loop
	// and elect a new leader.
	var c *inflightCall
	for {
		resp, ok := s.cache.Get(key)
		if firstLookup {
			clock.Lap(&tm, telemetry.StageCache)
			s.metrics.pipeline.Observe(telemetry.StageCache, tm[telemetry.StageCache])
			s.flight.Span(tr, telemetry.StageCache, cacheStart, tm[telemetry.StageCache], 0)
			firstLookup = false
		}
		if ok {
			s.metrics.cacheHits.Add(1)
			s.flight.Event(tr, telemetry.EventCacheHit, 0)
			resp.Cached = true
			return resp, nil
		}
		s.inflightMu.Lock()
		if lead, inFlight := s.inflight[key]; inFlight {
			s.inflightMu.Unlock()
			select {
			case <-lead.done:
			case <-ctx.Done():
				return IdentifyResponse{}, ctx.Err()
			}
			if !lead.ok {
				continue // leader aborted without probing; try again
			}
			s.metrics.cacheHits.Add(1)
			s.flight.Event(tr, telemetry.EventCacheHit, 0)
			resp := lead.resp
			resp.Cached = true
			return resp, nil
		}
		c = &inflightCall{done: make(chan struct{})}
		s.inflight[key] = c
		s.inflightMu.Unlock()
		break
	}
	defer func() {
		s.inflightMu.Lock()
		delete(s.inflight, key)
		s.inflightMu.Unlock()
		close(c.done)
	}()

	// Backlog bound: every probe slot busy plus QueueSize callers already
	// parked means this request would only deepen the pile-up. Shedding it
	// now (429 upstream) keeps sync latency honest under overload.
	if n := s.syncWaiting.Add(1); n > int64(s.cfg.QueueSize) {
		s.syncWaiting.Add(-1)
		s.metrics.syncRejected.Add(1)
		return IdentifyResponse{}, errQueueFull
	}
	select {
	case s.syncSem <- struct{}{}:
	case <-ctx.Done():
		s.syncWaiting.Add(-1)
		return IdentifyResponse{}, ctx.Err()
	}
	s.syncWaiting.Add(-1)
	defer func() { <-s.syncSem }()
	clock.Lap(&tm, telemetry.StageQueueWait)
	s.metrics.pipeline.Observe(telemetry.StageQueueWait, tm[telemetry.StageQueueWait])
	wait := tm[telemetry.StageQueueWait]
	s.flight.Span(tr, telemetry.StageQueueWait, time.Now().Add(-wait), wait, 0)
	s.metrics.cacheMisses.Add(1)
	s.flight.Event(tr, telemetry.EventCacheMiss, 0)
	s.metrics.inFlight.Add(1)
	defer s.metrics.inFlight.Add(-1)
	rng := xrand.New(spec.Seed)
	// Sessions recycle probe and feature scratch across requests; the pool
	// guarantees exclusive use for the duration of the probe. Span
	// recording stays on for the session's lifetime (idempotent re-enable);
	// the trace binding is rebound every request (pooled sessions).
	sess := model.acquireSession()
	sess.EnableTimings(&s.metrics.pipeline)
	sess.BindTrace(s.flight, tr)
	id := sess.Identify(server, cond, model.Identifier().Probe(), rng)
	model.releaseSession(sess)
	// Fold the service-side spans into the result's breakdown so the wire
	// timings cover the whole request, not just the pipeline core.
	id.Timings[telemetry.StageQueueWait] = tm[telemetry.StageQueueWait]
	id.Timings[telemetry.StageCache] = tm[telemetry.StageCache]
	s.metrics.identifies.Add(1)
	resp := toResponse(model.Version(), server.Name, id)
	s.metrics.countLabel(resp)
	s.cache.Put(key, resp)
	c.resp, c.ok = resp, true
	return resp, nil
}

// inflightCall is one in-progress identification shared by coalesced
// requests: done closes once the leader finishes. ok distinguishes a
// result from a leader that aborted before probing.
type inflightCall struct {
	done chan struct{}
	resp IdentifyResponse
	ok   bool
}

// countingBlock wraps a worker's block session so the in_flight gauge
// counts individual probes on the batch path, the same unit the
// synchronous path reports. It also stamps the job's trace with a
// shard-assignment event per gathered probe (arg packs worker<<32 | job
// tag), so a span tree shows which engine worker ran which sample.
type countingBlock struct {
	bs     engine.BlockIdentifier[core.Identification]
	m      *metrics
	flight *telemetry.Flight
	trace  telemetry.TraceID
	worker int
}

func (c countingBlock) Gather(tag int, server *websim.Server, cond netem.Condition, cfg probe.Config, rng *rand.Rand) {
	c.m.inFlight.Add(1)
	defer c.m.inFlight.Add(-1)
	c.flight.Event(c.trace, telemetry.EventShardAssign, uint64(c.worker)<<32|uint64(tag)&0xffffffff)
	c.bs.Gather(tag, server, cond, cfg, rng)
}

func (c countingBlock) Flush(emit func(tag int, out core.Identification)) { c.bs.Flush(emit) }

// validateBatch resolves the model and pre-validates every job spec so a
// malformed batch is rejected at submission time, not mid-run.
func (s *Service) validateBatch(req BatchRequest) error {
	if len(req.Jobs) == 0 {
		return fmt.Errorf("batch needs at least one job")
	}
	if len(req.Jobs) > s.cfg.MaxBatchJobs {
		return fmt.Errorf("batch of %d jobs exceeds the %d-job limit", len(req.Jobs), s.cfg.MaxBatchJobs)
	}
	if _, err := s.registry.Get(req.Model); err != nil {
		return err
	}
	for i, j := range req.Jobs {
		if _, err := j.Server.build(); err != nil {
			return fmt.Errorf("job %d: %v", i, err)
		}
		if _, err := j.Condition.build(); err != nil {
			return fmt.Errorf("job %d: %v", i, err)
		}
	}
	return nil
}

// runBatch executes one accepted batch job: cached specs are answered
// from memory, the rest run through engine.IdentifyBatch on the worker
// pool, each completion streaming into the job's progress counter as its
// probe finishes.
func (s *Service) runBatch(j *job) {
	model, err := s.registry.Get(j.model)
	if err != nil {
		// The model was validated at submission; it can only vanish if the
		// registry shrank since, which Registry does not support -- but
		// fail the job cleanly rather than panic if that ever changes.
		j.fail(err.Error())
		s.metrics.jobsFailed.Add(1)
		return
	}
	version := model.Version()

	// Partition into cache hits (answered immediately) and misses, and
	// coalesce identical misses: results are deterministic per key, so N
	// copies of one spec in a batch cost one probe, fanned out to all N
	// slots when it completes (duplicates count as cache hits, like the
	// sync path's singleflight followers). Known trade-off: the batch
	// prepass reads only the cache, not the sync path's in-flight map, so
	// a batch racing a concurrent identical /v1/identify probe can repeat
	// that one probe -- a bounded duplication we accept to keep the batch
	// executor from blocking on sync traffic.
	type missGroup struct {
		key      string
		specIdxs []int
	}
	var groups []missGroup
	groupOf := map[string]int{}
	engineJobs := make([]engine.Job, 0, len(j.specs))
	for i, raw := range j.specs {
		spec := raw.normalize()
		key := version + "|" + spec.fingerprint()
		if resp, ok := s.cache.Get(key); ok {
			s.metrics.cacheHits.Add(1)
			resp.Cached = true
			j.complete(i, resp, true)
			continue
		}
		if gi, dup := groupOf[key]; dup {
			groups[gi].specIdxs = append(groups[gi].specIdxs, i)
			continue
		}
		s.metrics.cacheMisses.Add(1)
		groupOf[key] = len(groups)
		groups = append(groups, missGroup{key: key, specIdxs: []int{i}})
		server, _ := spec.Server.build()  // validated at submission
		cond, _ := spec.Condition.build() // validated at submission
		engineJobs = append(engineJobs, engine.Job{Server: server, Cond: cond, Seed: spec.Seed})
	}

	if len(engineJobs) > 0 {
		// Each pool worker probes its misses on a private session and
		// classifies every probe as soon as it is gathered.
		id := model.Identifier()
		workerSeq := 0 // NewWorkerBlock is called sequentially by the engine
		engine.IdentifyBatch[core.Identification](id, engineJobs, engine.BatchConfig[core.Identification]{
			Ctx:         j.ctx,
			Parallelism: s.cfg.Parallelism,
			Probe:       id.Probe(),
			NewWorkerBlock: func() engine.BlockIdentifier[core.Identification] {
				bs := id.NewBlockSession()
				bs.EnableTimings(&s.metrics.pipeline)
				bs.BindTrace(s.flight, j.trace)
				w := workerSeq
				workerSeq++
				return countingBlock{bs: bs, m: s.metrics, flight: s.flight, trace: j.trace, worker: w}
			},
			OnResult: func(r engine.Result[core.Identification]) {
				g := groups[r.Index]
				resp := toResponse(version, r.Job.Server.Name, r.Out)
				s.metrics.identifies.Add(1)
				s.metrics.countLabel(resp)
				s.cache.Put(g.key, resp)
				j.complete(g.specIdxs[0], resp, false)
				resp.Cached = true
				for _, si := range g.specIdxs[1:] {
					s.metrics.cacheHits.Add(1)
					j.complete(si, resp, true)
				}
			},
		})
	}

	if err := j.ctx.Err(); err != nil {
		j.fail("cancelled: " + err.Error())
		s.metrics.jobsFailed.Add(1)
		return
	}
	j.finish()
	s.metrics.jobsCompleted.Add(1)
}
