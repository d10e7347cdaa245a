package service

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/census/shard"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/flow"
	"repro/internal/telemetry"
)

// metrics aggregates the service counters exposed at GET /metrics. All
// counters are monotonic except InFlight (a gauge).
type metrics struct {
	requests       atomic.Int64 // HTTP requests served, all endpoints
	identifies     atomic.Int64 // identifications executed (sync + batch, cache misses)
	cacheHits      atomic.Int64
	cacheMisses    atomic.Int64
	batchAccepted  atomic.Int64 // async jobs accepted
	batchRejected  atomic.Int64 // async jobs rejected (queue full / bad request)
	jobsCompleted  atomic.Int64
	jobsFailed     atomic.Int64 // cancelled or shut down mid-run
	inFlight       atomic.Int64 // probes currently executing (sync + batch)
	modelsReloaded atomic.Int64
	syncRejected   atomic.Int64 // sync identifies shed by the backlog bound (429)

	// censusJobs counts census campaigns accepted on POST /v1/census;
	// census is the process-wide sink every campaign's coordinator mirrors
	// its fault-tolerance counters into (retries, backoff, steals,
	// checkpoint writes, abandoned targets, per-target attempt histogram).
	censusJobs atomic.Int64
	census     shard.Metrics

	// Capture-ingestion counters (POST /v1/pcap).
	pcapUploads           atomic.Int64 // capture uploads received
	pcapFlowsSeen         atomic.Int64 // TCP flows reassembled from uploads
	pcapFlowsClassifiable atomic.Int64 // flows that yielded a valid trace
	pcapDecodeErrors      atomic.Int64 // uploads rejected as undecodable
	pcapBytes             atomic.Int64 // capture bytes ingested (throughput numerator)
	// pcapDecode observes each upload's decode+reassembly wall clock (the
	// throughput denominator, and the passive pipeline's gather latency at
	// upload granularity).
	pcapDecode telemetry.Histogram

	// Streaming-capture counters (POST /v1/pcap/stream). The gauges
	// aggregate across concurrent streams: streamLive is the total flows
	// resident in every running pipeline right now -- the number an
	// operator watches to confirm live-capture memory stays flat.
	streamRequests      atomic.Int64      // stream requests received
	streamRejected      atomic.Int64      // streams shed by the MaxStreams bound (429)
	streamErrors        atomic.Int64      // streams ended by a decode/transport error
	streamActive        telemetry.Gauge   // streams currently running
	streamLive          telemetry.Gauge   // flows live across all streams
	streamLiveHighWater telemetry.Gauge   // most flows ever live at once
	streamEpochs        telemetry.Counter // expiry sweep epochs completed
	streamExpired       telemetry.Counter // flows closed by idle expiry
	streamBytes         telemetry.Counter // capture bytes accepted by streams
	streamPackets       telemetry.Counter // capture records read
	streamFlows         telemetry.Counter // flows emitted (expired+evicted+drained)
	streamRingHighWater telemetry.Gauge   // fullest any ingest ring has been

	// Outcome-class counters, one per identification, mirroring
	// internal/eval's accounting classes so /metrics and the evaluation
	// matrix slice results the same way. Exactly one of these increments
	// per identification; labeled covers confident labels (eval's
	// correct+wrong -- the service has no ground truth to split them).
	outcomeLabeled atomic.Int64
	outcomeUnsure  atomic.Int64
	outcomeSpecial atomic.Int64
	outcomeInvalid atomic.Int64

	// pipeline aggregates per-stage spans (queue wait, gather, feature,
	// classify, cache) from every recording path: sync identifies, batch
	// workers' block sessions, and pcap classification.
	pipeline telemetry.Pipeline

	// endpoints maps the matched route pattern -> *telemetry.Histogram of
	// request latency. Same sync.Map rationale as labels: a tiny key set
	// that stabilizes immediately.
	endpoints sync.Map

	// queueHighWater tracks the deepest the batch queue has been;
	// workersBusy counts workers currently executing a job;
	// finishedRetained is the finished-job retention window's occupancy.
	queueHighWater   telemetry.Gauge
	workersBusy      telemetry.Gauge
	finishedRetained telemetry.Gauge

	// labels maps reported label -> *atomic.Int64. The label set is tiny
	// and stabilizes after warm-up, which is sync.Map's sweet spot: the
	// request path is a lock-free read-and-add, with the store path taken
	// only the first time a label appears. (The previous mutex-guarded
	// map serialized every identification on one lock; see
	// BenchmarkCountLabel for the measured difference.)
	labels sync.Map
}

func newMetrics() *metrics {
	return &metrics{}
}

// streamMetrics binds the flow pipeline's instrument set to the service
// counters. Every stream shares the same instruments, so the gauges
// aggregate across concurrent uploads.
func (m *metrics) streamMetrics() *flow.StreamMetrics {
	return &flow.StreamMetrics{
		Tracker: flow.TrackerMetrics{
			Live:          &m.streamLive,
			LiveHighWater: &m.streamLiveHighWater,
			Epochs:        &m.streamEpochs,
			Expired:       &m.streamExpired,
		},
		Bytes:         &m.streamBytes,
		Packets:       &m.streamPackets,
		Flows:         &m.streamFlows,
		RingHighWater: &m.streamRingHighWater,
	}
}

// countLabel tallies one identification outcome under its reported label
// (special shapes and invalid traces get their own buckets) and under its
// outcome class. Lock-free on the request path once a label's counter
// exists.
func (m *metrics) countLabel(resp IdentifyResponse) {
	label := resp.Label
	switch {
	case !resp.Valid:
		label = "INVALID"
		m.outcomeInvalid.Add(1)
	case resp.Special != "":
		label = "SPECIAL:" + resp.Special
		m.outcomeSpecial.Add(1)
	case resp.Label == core.LabelUnsure:
		m.outcomeUnsure.Add(1)
	default:
		m.outcomeLabeled.Add(1)
	}
	c, ok := m.labels.Load(label)
	if !ok {
		c, _ = m.labels.LoadOrStore(label, new(atomic.Int64))
	}
	c.(*atomic.Int64).Add(1)
}

// observeEndpoint records one request's latency under its matched route
// pattern.
func (m *metrics) observeEndpoint(pattern string, d time.Duration) {
	h, ok := m.endpoints.Load(pattern)
	if !ok {
		h, _ = m.endpoints.LoadOrStore(pattern, new(telemetry.Histogram))
	}
	h.(*telemetry.Histogram).Observe(d)
}

// endpointSnapshots copies every endpoint histogram, keyed by pattern.
func (m *metrics) endpointSnapshots() map[string]telemetry.HistogramSnapshot {
	out := map[string]telemetry.HistogramSnapshot{}
	m.endpoints.Range(func(k, v any) bool {
		out[k.(string)] = v.(*telemetry.Histogram).Snapshot()
		return true
	})
	return out
}

// MetricsSnapshot is the GET /metrics response body.
type MetricsSnapshot struct {
	Requests       int64 `json:"requests_total"`
	Identifies     int64 `json:"identifications_total"`
	InFlight       int64 `json:"in_flight"`
	QueueDepth     int   `json:"queue_depth"`
	Workers        int   `json:"workers"`
	BatchAccepted  int64 `json:"batch_jobs_accepted"`
	BatchRejected  int64 `json:"batch_jobs_rejected"`
	JobsCompleted  int64 `json:"batch_jobs_completed"`
	JobsFailed     int64 `json:"batch_jobs_failed"`
	ModelsReloaded int64 `json:"models_reloaded"`
	SyncRejected   int64 `json:"sync_rejected"`

	Cache struct {
		Hits    int64   `json:"hits"`
		Misses  int64   `json:"misses"`
		HitRate float64 `json:"hit_rate"`
		Entries int     `json:"entries"`
		Max     int     `json:"max_entries"`
	} `json:"cache"`

	// QueueHighWater is the deepest the batch queue has been since start;
	// WorkersBusy counts workers currently executing a job;
	// FinishedRetained is how many finished jobs the retention window
	// currently keeps pollable (bounded by the JobRetention config).
	QueueHighWater   int64 `json:"queue_high_water"`
	WorkersBusy      int64 `json:"workers_busy"`
	FinishedRetained int64 `json:"finished_jobs_retained"`

	// Outcomes classifies every identification into exactly one bucket,
	// mirroring internal/eval's accounting classes. Labeled is a confident
	// algorithm label (eval's correct+wrong; the service holds no ground
	// truth to split them), Unsure the <40%-confidence verdict, Special a
	// special trace shape, Invalid a trace the prober rejected. Their sum
	// equals identifications_total.
	Outcomes struct {
		Labeled int64 `json:"labeled"`
		Unsure  int64 `json:"unsure"`
		Special int64 `json:"special"`
		Invalid int64 `json:"invalid"`
	} `json:"outcomes"`

	// Pcap reports capture-ingestion health: how many uploads arrived,
	// how many flows they held, how many of those reconstructed to
	// classifiable traces, how many uploads failed to decode, and the
	// ingested byte/decode-time totals (their ratio is ingest throughput).
	Pcap struct {
		Uploads      int64   `json:"uploads"`
		FlowsSeen    int64   `json:"flows_seen"`
		Classifiable int64   `json:"flows_classifiable"`
		DecodeErrors int64   `json:"decode_errors"`
		Bytes        int64   `json:"bytes"`
		DecodeMs     float64 `json:"decode_ms"`
	} `json:"pcap"`

	// Stream reports live-capture streaming health (POST
	// /v1/pcap/stream): request/shed/error totals, streams running now,
	// the aggregate live-flow gauge with its high water (the bounded-
	// memory witness), expiry-sweep counters, and pipeline throughput
	// (bytes, packets, flows, ring occupancy high water).
	Stream struct {
		Requests      int64 `json:"requests"`
		Rejected      int64 `json:"rejected"`
		Errors        int64 `json:"errors"`
		Active        int64 `json:"active"`
		LiveFlows     int64 `json:"live_flows"`
		LiveHighWater int64 `json:"live_flows_high_water"`
		Epochs        int64 `json:"epochs"`
		Expired       int64 `json:"expired_flows"`
		Bytes         int64 `json:"bytes"`
		Packets       int64 `json:"packets"`
		Flows         int64 `json:"flows"`
		RingHighWater int64 `json:"ring_high_water_bytes"`
	} `json:"stream"`

	// Census aggregates the fault-tolerance counters of every census
	// campaign run through POST /v1/census: probe retries and their
	// accumulated backoff, rate-limit deferrals, work steals, abandoned
	// targets, checkpoint writes, and the per-target contact-attempt
	// histogram (Attempts). Jobs counts accepted campaigns.
	Census struct {
		Jobs             int64                       `json:"jobs"`
		Probes           int64                       `json:"probes"`
		Retries          int64                       `json:"retries"`
		Deferrals        int64                       `json:"deferrals"`
		RateLimitWaits   int64                       `json:"rate_limit_waits"`
		Steals           int64                       `json:"steals"`
		TargetsAbandoned int64                       `json:"targets_abandoned"`
		BackoffSeconds   float64                     `json:"backoff_seconds"`
		CheckpointWrites int64                       `json:"checkpoint_writes"`
		WorkerCrashes    int64                       `json:"worker_crashes"`
		Attempts         telemetry.CountHistSnapshot `json:"attempts"`
	} `json:"census"`

	// Stages summarizes the per-stage pipeline latency histograms (see
	// internal/telemetry: queue_wait, gather, feature, classify, cache);
	// stages with no observations are omitted. Endpoints does the same per
	// matched HTTP route. Full bucket detail is on the Prometheus
	// exposition (GET /metrics?format=prometheus).
	Stages    map[string]LatencySummary `json:"stages,omitempty"`
	Endpoints map[string]LatencySummary `json:"endpoints,omitempty"`

	// Traces reports the flight recorder's accounting: spans written
	// into the rings, traces offered to tail sampling, and what happened
	// to them (retained / dropped-as-normal / lost to a full completion
	// queue), plus the retained store's current occupancy.
	Traces telemetry.FlightStats `json:"traces"`

	// Runtime is the Go runtime's own health read at snapshot time
	// (goroutines, heap, GC cycles and pause quantiles, scheduling
	// latency quantiles), so a latency spike is attributable to GC or
	// scheduler pressure without a second tool.
	Runtime telemetry.RuntimeStats `json:"runtime"`

	Labels map[string]int64 `json:"labels"`
	Models []ModelInfo      `json:"models"`

	// Eval is the latest scenario-matrix evaluation summary (overall and
	// per-scenario accuracy of the newest ACCURACY_<n>.json point), when
	// one was installed with Service.SetEvalSummary; absent otherwise.
	Eval *eval.Summary `json:"eval,omitempty"`
}

// LatencySummary condenses one latency histogram for the JSON snapshot:
// observation count, mean, and interpolated p50/p95/p99 estimates (see
// HistogramSnapshot.Quantile: linear within the holding log-spaced
// bucket), so /metrics consumers stop re-deriving quantiles from raw
// buckets.
type LatencySummary struct {
	Count  int64   `json:"count"`
	MeanUs float64 `json:"mean_us"`
	P50Us  float64 `json:"p50_us"`
	P95Us  float64 `json:"p95_us"`
	P99Us  float64 `json:"p99_us"`
}

func summarize(s telemetry.HistogramSnapshot) LatencySummary {
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	return LatencySummary{
		Count:  s.Count,
		MeanUs: us(s.Mean()),
		P50Us:  us(s.Quantile(0.5)),
		P95Us:  us(s.Quantile(0.95)),
		P99Us:  us(s.Quantile(0.99)),
	}
}

// ModelInfo describes one registry entry in /metrics and reload responses.
type ModelInfo struct {
	Name       string `json:"name"`
	Version    string `json:"version"`
	Backend    string `json:"backend"`
	Path       string `json:"path,omitempty"`
	LoadedAt   string `json:"loaded_at"`
	Generation int    `json:"generation"`
	Default    bool   `json:"default,omitempty"`
}

// snapshot captures the counters plus live queue/cache/registry state.
func (s *Service) snapshot() MetricsSnapshot {
	m := s.metrics
	var out MetricsSnapshot
	out.Requests = m.requests.Load()
	out.Identifies = m.identifies.Load()
	out.InFlight = m.inFlight.Load()
	out.QueueDepth = len(s.queue)
	out.Workers = s.cfg.Workers
	out.BatchAccepted = m.batchAccepted.Load()
	out.BatchRejected = m.batchRejected.Load()
	out.JobsCompleted = m.jobsCompleted.Load()
	out.JobsFailed = m.jobsFailed.Load()
	out.ModelsReloaded = m.modelsReloaded.Load()
	out.SyncRejected = m.syncRejected.Load()

	out.Census.Jobs = m.censusJobs.Load()
	out.Census.Probes = m.census.Probes.Load()
	out.Census.Retries = m.census.Retries.Load()
	out.Census.Deferrals = m.census.Deferrals.Load()
	out.Census.RateLimitWaits = m.census.RateLimitWaits.Load()
	out.Census.Steals = m.census.Steals.Load()
	out.Census.TargetsAbandoned = m.census.TargetsAbandoned.Load()
	out.Census.BackoffSeconds = time.Duration(m.census.BackoffNanos.Load()).Seconds()
	out.Census.CheckpointWrites = m.census.CheckpointWrites.Load()
	out.Census.WorkerCrashes = m.census.WorkerCrashes.Load()
	out.Census.Attempts = m.census.Attempts.Snapshot()

	out.Cache.Hits = m.cacheHits.Load()
	out.Cache.Misses = m.cacheMisses.Load()
	if total := out.Cache.Hits + out.Cache.Misses; total > 0 {
		out.Cache.HitRate = float64(out.Cache.Hits) / float64(total)
	}
	out.Cache.Entries = s.cache.Len()
	out.Cache.Max = s.cfg.CacheSize

	out.QueueHighWater = m.queueHighWater.Load()
	out.WorkersBusy = m.workersBusy.Load()
	out.FinishedRetained = m.finishedRetained.Load()

	out.Outcomes.Labeled = m.outcomeLabeled.Load()
	out.Outcomes.Unsure = m.outcomeUnsure.Load()
	out.Outcomes.Special = m.outcomeSpecial.Load()
	out.Outcomes.Invalid = m.outcomeInvalid.Load()

	out.Pcap.Uploads = m.pcapUploads.Load()
	out.Pcap.FlowsSeen = m.pcapFlowsSeen.Load()
	out.Pcap.Classifiable = m.pcapFlowsClassifiable.Load()
	out.Pcap.DecodeErrors = m.pcapDecodeErrors.Load()
	out.Pcap.Bytes = m.pcapBytes.Load()
	out.Pcap.DecodeMs = float64(m.pcapDecode.Snapshot().Sum) / float64(time.Millisecond)

	out.Stream.Requests = m.streamRequests.Load()
	out.Stream.Rejected = m.streamRejected.Load()
	out.Stream.Errors = m.streamErrors.Load()
	out.Stream.Active = m.streamActive.Load()
	out.Stream.LiveFlows = m.streamLive.Load()
	out.Stream.LiveHighWater = m.streamLiveHighWater.Load()
	out.Stream.Epochs = m.streamEpochs.Load()
	out.Stream.Expired = m.streamExpired.Load()
	out.Stream.Bytes = m.streamBytes.Load()
	out.Stream.Packets = m.streamPackets.Load()
	out.Stream.Flows = m.streamFlows.Load()
	out.Stream.RingHighWater = m.streamRingHighWater.Load()

	for st, snap := range m.pipeline.Snapshot() {
		if snap.Count == 0 {
			continue
		}
		if out.Stages == nil {
			out.Stages = map[string]LatencySummary{}
		}
		out.Stages[telemetry.Stage(st).String()] = summarize(snap)
	}
	for pattern, snap := range m.endpointSnapshots() {
		if out.Endpoints == nil {
			out.Endpoints = map[string]LatencySummary{}
		}
		out.Endpoints[pattern] = summarize(snap)
	}

	out.Labels = map[string]int64{}
	m.labels.Range(func(k, v any) bool {
		out.Labels[k.(string)] = v.(*atomic.Int64).Load()
		return true
	})

	out.Traces = s.flight.Stats()
	out.Runtime = telemetry.ReadRuntimeStats()

	out.Models = s.modelInfos()
	out.Eval = s.latestEvalSummary()
	return out
}

// newModelInfo renders one registry entry for /metrics, /v1/models, and
// reload responses.
func newModelInfo(m *Model) ModelInfo {
	return ModelInfo{
		Name:       m.Name,
		Version:    m.Version(),
		Backend:    m.Backend,
		Path:       m.Path,
		LoadedAt:   m.LoadedAt.UTC().Format(time.RFC3339),
		Generation: m.Generation,
	}
}

func (s *Service) modelInfos() []ModelInfo {
	models := s.registry.Snapshot()
	out := make([]ModelInfo, 0, len(models))
	for i, m := range models {
		info := newModelInfo(m)
		info.Default = i == 0
		out = append(out, info)
	}
	return out
}
