// Package service turns the CAAI pipeline into a resident
// identification-as-a-service: an HTTP/JSON API layered on the engine
// worker pool. A Service loads trained models once (into a hot-swappable
// Registry), answers synchronous identifications on POST /v1/identify,
// runs large batches asynchronously through a bounded job queue onto the
// engine pool (POST /v1/batch + GET /v1/jobs/{id}) -- both through one
// answer path that memoizes results in an LRU keyed by (model version,
// server spec, condition fingerprint) and shares one probe between
// identical requests -- and reports its own health and counters on
// GET /healthz and GET /metrics.
package service

import (
	"context"
	"fmt"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/eval"
	"repro/internal/netem"
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
	// reads, decodes and tracks on its request's goroutine); excess
	// requests are shed with 429. 0 means DefaultMaxStreams.
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

// identify answers one /v1/identify request against the named model. ctx
// aborts waiting (on an identical in-flight probe or a probe slot) when
// the caller has gone away, so abandoned requests stop occupying slots.
func (s *Service) identify(ctx context.Context, modelName string, spec JobSpec) (IdentifyResponse, error) {
	model, err := s.registry.Get(modelName)
	if err != nil {
		return IdentifyResponse{}, err
	}
	// Validate before resolving so rejected requests do not skew the
	// hit-rate counters.
	r, err := prepare(model, spec)
	if err != nil {
		return IdentifyResponse{}, err
	}
	return s.resolve(ctx, model, r, asker{trace: traceIDFrom(ctx), sync: true})
}

// request is one validated spec ready to resolve: the server and
// condition it describes, its seed, and its result-cache key.
type request struct {
	server *websim.Server
	cond   netem.Condition
	seed   int64
	key    string
}

// prepare validates spec and keys it under model's version: the answer
// is a pure function of (model, server, condition, seed).
func prepare(model *Model, spec JobSpec) (request, error) {
	spec = spec.normalize()
	server, err := spec.Server.build()
	if err != nil {
		return request{}, err
	}
	cond, err := spec.Condition.build()
	if err != nil {
		return request{}, err
	}
	return request{server: server, cond: cond, seed: spec.Seed, key: model.Version() + "|" + spec.fingerprint()}, nil
}

// asker says who resolves a request. Batch answers are traced under the
// job's trace with the job's index as the tag, and stamped with the engine
// worker that ran them; sync answers probe under the backlog bound and a
// probe slot.
type asker struct {
	trace  telemetry.TraceID
	tag    uint64
	worker int
	sync   bool
}

// resolve is the service's one answer path, shared by /v1/identify and
// the batch executor: the result cache, then an identical probe already
// in flight, then a probe of its own, whose answer is counted and cached.
//
// Identical requests share one probe: later ones wait for the first and
// count as cache hits (they are served from memory); only the prober
// counts a miss. A sync prober that aborts before probing (ctx cancelled
// at the probe slot) closes done without a result; waiting requests then
// loop and one of them probes.
func (s *Service) resolve(ctx context.Context, model *Model, r request, a asker) (IdentifyResponse, error) {
	// Service-side spans: cache is the first lookup's cost, queue_wait the
	// time from then until a sync probe slot is held (waits on an
	// identical probe included -- that IS the queueing a coalesced request
	// experiences).
	var clock telemetry.SpanClock
	var tm telemetry.StageTimings
	cacheStart := time.Now()
	clock.StartAt(cacheStart)
	var c *inflightCall
	for first := true; ; first = false {
		resp, ok := s.cache.Get(r.key)
		if first {
			clock.Lap(&tm, telemetry.StageCache)
			s.metrics.pipeline.Observe(telemetry.StageCache, tm[telemetry.StageCache])
			s.flight.Span(a.trace, telemetry.StageCache, cacheStart, tm[telemetry.StageCache], a.tag)
		}
		if !ok {
			s.inflightMu.Lock()
			lead, inFlight := s.inflight[r.key]
			if !inFlight {
				c = &inflightCall{done: make(chan struct{})}
				s.inflight[r.key] = c
				s.inflightMu.Unlock()
				break
			}
			s.inflightMu.Unlock()
			select {
			case <-lead.done:
			case <-ctx.Done():
				return IdentifyResponse{}, ctx.Err()
			}
			if !lead.ok {
				continue // the prober aborted before probing; try again
			}
			resp = lead.resp
		}
		s.metrics.cacheHits.Add(1)
		s.flight.Event(a.trace, telemetry.EventCacheHit, a.tag)
		resp.Cached = true
		return resp, nil
	}
	defer func() {
		s.inflightMu.Lock()
		delete(s.inflight, r.key)
		s.inflightMu.Unlock()
		close(c.done)
	}()

	if a.sync {
		// Backlog bound: every probe slot busy plus QueueSize callers
		// already parked means this request would only deepen the pile-up.
		// Shedding it now (429 upstream) keeps sync latency honest under
		// overload.
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
		wait := tm[telemetry.StageQueueWait]
		s.metrics.pipeline.Observe(telemetry.StageQueueWait, wait)
		s.flight.Span(a.trace, telemetry.StageQueueWait, time.Now().Add(-wait), wait, a.tag)
	} else {
		// Which engine worker ran which batch job: arg packs worker<<32 | tag.
		s.flight.Event(a.trace, telemetry.EventShardAssign, uint64(a.worker)<<32|a.tag)
	}
	s.metrics.cacheMisses.Add(1)
	s.flight.Event(a.trace, telemetry.EventCacheMiss, a.tag)
	s.metrics.inFlight.Add(1)
	defer s.metrics.inFlight.Add(-1)
	// Sessions recycle probe and feature scratch across requests; the pool
	// guarantees exclusive use for the duration of the probe. Span
	// recording stays on for the session's lifetime (idempotent re-enable);
	// the trace binding is rebound every request (pooled sessions).
	sess := model.sessions.Get().(*core.Session)
	sess.EnableTimings(&s.metrics.pipeline)
	sess.BindTrace(s.flight, a.trace, a.tag)
	id := sess.Identify(r.server, r.cond, model.Identifier().Probe(), xrand.New(r.seed))
	model.sessions.Put(sess)
	// Fold the service-side spans into the result's breakdown so the wire
	// timings cover the whole request, not just the pipeline core.
	id.Timings[telemetry.StageQueueWait] = tm[telemetry.StageQueueWait]
	id.Timings[telemetry.StageCache] = tm[telemetry.StageCache]
	s.metrics.identifies.Add(1)
	resp := toResponse(model.Version(), r.server.Name, id)
	s.metrics.countLabel(resp)
	s.cache.Put(r.key, resp)
	c.resp, c.ok = resp, true
	return resp, nil
}

// inflightCall is one in-progress identification shared by identical
// requests: done closes once the prober finishes. ok distinguishes a
// result from a prober that aborted before probing.
type inflightCall struct {
	done chan struct{}
	resp IdentifyResponse
	ok   bool
}

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

// runBatch answers a batch's specs on the engine pool through resolve,
// each completion streaming into the job's progress as it lands. A spec
// repeated within the batch resolves once: its first occurrence asks
// resolve and later copies are filled from that answer as Cached, so
// which copy probes never depends on scheduling.
func (s *Service) runBatch(j *job, model *Model) error {
	var (
		uniq   []request
		first  []int             // spec index of each unique request
		copies = map[int][]int{} // unique index -> later duplicates' spec indexes
		seen   = map[string]int{}
	)
	for i, spec := range j.specs {
		r, err := prepare(model, spec)
		if err != nil {
			return fmt.Errorf("job %d: %v", i, err)
		}
		if u, dup := seen[r.key]; dup {
			copies[u] = append(copies[u], i)
			continue
		}
		seen[r.key] = len(uniq)
		uniq = append(uniq, r)
		first = append(first, i)
	}
	return engine.RunWorkers(j.ctx, len(uniq), s.cfg.Parallelism, func(w, u int) {
		i := first[u]
		resp, err := s.resolve(j.ctx, model, uniq[u], asker{trace: j.trace, tag: uint64(i), worker: w})
		if err != nil {
			return // only the job's cancellation ends a batch resolve early
		}
		j.complete(i, resp, resp.Cached)
		resp.Cached = true
		for _, c := range copies[u] {
			s.metrics.cacheHits.Add(1)
			j.complete(c, resp, true)
		}
	})
}
