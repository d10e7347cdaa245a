package service

import (
	"sort"
	"sync"
	"time"

	"repro/internal/census/shard"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/flow"
	"repro/internal/telemetry"
)

// metrics holds the handles of the service instruments. Each instrument
// is declared once, in newMetrics, on reg, which renders both GET
// /metrics bodies: the JSON object and the Prometheus exposition.
type metrics struct {
	reg *telemetry.Registry

	requests, identifies, cacheHits, cacheMisses            *telemetry.Counter
	batchAccepted, batchRejected, jobsCompleted, jobsFailed *telemetry.Counter
	modelsReloaded, syncRejected                            *telemetry.Counter
	inFlight, queueHighWater, workersBusy, finishedRetained *telemetry.Gauge

	censusJobs *telemetry.Counter
	// census is the sink every campaign's coordinator mirrors its
	// fault-tolerance counters into.
	census shard.Metrics

	pcapUploads, pcapFlowsSeen, pcapFlowsClassifiable *telemetry.Counter
	pcapDecodeErrors, pcapBytes                       *telemetry.Counter
	// pcapDecode observes each upload's decode+reassembly wall clock.
	pcapDecode telemetry.Histogram

	streamRequests, streamRejected, streamErrors, streamBytes *telemetry.Counter
	streamActive                                              *telemetry.Gauge
	// stream is shared by every capture stream, so its gauges aggregate
	// across concurrent uploads.
	stream flow.StreamMetrics

	// outcomes holds exactly one increment per identification, in
	// internal/eval's accounting classes (labeled covers eval's
	// correct+wrong: the service has no ground truth to split them);
	// labels counts the reported labels.
	outcomes, labels *telemetry.CounterVec

	// pipeline aggregates per-stage spans from every recording path;
	// endpoints maps the matched route pattern to a *telemetry.Histogram
	// of request latency.
	pipeline  telemetry.Pipeline
	endpoints sync.Map
}

// newMetrics declares every instrument of s, in exposition order.
func newMetrics(s *Service) *metrics {
	r := new(telemetry.Registry)
	m := &metrics{reg: r}
	m.requests = r.Counter("requests_total", "caai_requests_total", "HTTP requests served, all endpoints.")
	m.identifies = r.Counter("identifications_total", "caai_identifications_total", "Identifications executed (sync + batch, cache misses).")
	m.inFlight = r.Gauge("in_flight", "caai_in_flight", "Probes currently executing (sync + batch).")
	r.GaugeFunc("queue_depth", "caai_queue_depth", "Batch jobs waiting in the bounded queue.", func() int64 { return int64(len(s.queue)) })
	m.queueHighWater = r.Gauge("queue_high_water", "caai_queue_high_water", "Deepest the batch queue has been since start.")
	r.GaugeFunc("workers", "caai_workers", "Configured batch workers.", func() int64 { return int64(s.cfg.Workers) })
	m.workersBusy = r.Gauge("workers_busy", "caai_workers_busy", "Workers currently executing a job.")
	m.finishedRetained = r.Gauge("finished_jobs_retained", "caai_finished_jobs_retained", "Finished jobs kept pollable by the retention window.")
	m.batchAccepted = r.Counter("batch_jobs_accepted", "caai_batch_jobs_accepted_total", "Async jobs accepted.")
	m.batchRejected = r.Counter("batch_jobs_rejected", "caai_batch_jobs_rejected_total", "Async jobs rejected (queue full / bad request).")
	m.jobsCompleted = r.Counter("batch_jobs_completed", "caai_batch_jobs_completed_total", "Async jobs finished successfully.")
	m.jobsFailed = r.Counter("batch_jobs_failed", "caai_batch_jobs_failed_total", "Async jobs cancelled or failed.")
	m.modelsReloaded = r.Counter("models_reloaded", "caai_models_reloaded_total", "Model hot-swaps applied.")
	m.syncRejected = r.Counter("sync_rejected", "caai_sync_rejected_total", "Sync identifies shed by the backlog bound (429).")

	m.censusJobs = r.Counter("census.jobs", "caai_census_jobs_total", "Census campaigns accepted on POST /v1/census.")
	r.CounterFunc("census.probes", "caai_census_probes_total", "Census probes executed (injected faults excluded).", m.census.Probes.Load)
	r.CounterFunc("census.retries", "caai_census_retries_total", "Census probe attempts re-queued after a transient timeout.", m.census.Retries.Load)
	r.CounterFunc("census.deferrals", "caai_census_deferrals_total", "Census rate-limited attempts deferred without consuming an attempt.", m.census.Deferrals.Load)
	r.CounterFunc("census.targets_abandoned", "caai_census_targets_abandoned_total", "Census targets abandoned (retries/deferrals exhausted or unreachable).", m.census.TargetsAbandoned.Load)
	r.FloatFunc("census.backoff_seconds", "caai_census_backoff_seconds_total", "Total scheduled census retry/deferral backoff delay.", telemetry.KindCounter,
		func() float64 { return time.Duration(m.census.BackoffNanos.Load()).Seconds() })
	r.CounterFunc("census.checkpoint_writes", "caai_census_checkpoint_writes_total", "Census checkpoint records durably appended.", m.census.CheckpointWrites.Load)
	r.CounterFunc("census.worker_crashes", "caai_census_worker_crashes_total", "Census worker deaths injected by fault plans.", m.census.WorkerCrashes.Load)
	r.Family("census.attempts", func() any { return m.census.Attempts.Snapshot() },
		"caai_census_attempts", "Per-target census contact attempts consumed (1 = first-try success).", telemetry.KindHistogram,
		func(p *telemetry.PromWriter, name string) { p.CountHistSamples(name, m.census.Attempts.Snapshot()) })

	m.cacheHits = r.Counter("cache.hits", "caai_cache_hits_total", "Result-cache hits (incl. coalesced followers).")
	m.cacheMisses = r.Counter("cache.misses", "caai_cache_misses_total", "Result-cache misses.")
	r.GaugeFunc("cache.entries", "caai_cache_entries", "Result-cache occupancy.", func() int64 { return int64(s.cache.Len()) })
	r.Family("cache.max_entries", func() any { return s.cfg.CacheSize }, "", "", "", nil)
	r.Family("cache.hit_rate", func() any {
		hits, misses := m.cacheHits.Load(), m.cacheMisses.Load()
		return float64(hits) / max(float64(hits+misses), 1)
	}, "", "", "", nil)

	m.pcapUploads = r.Counter("pcap.uploads", "caai_pcap_uploads_total", "Capture uploads received.")
	m.pcapFlowsSeen = r.Counter("pcap.flows_seen", "caai_pcap_flows_total", "TCP flows reassembled from uploads.")
	m.pcapFlowsClassifiable = r.Counter("pcap.flows_classifiable", "caai_pcap_flows_classifiable_total", "Reassembled flows with a valid CAAI trace.")
	m.pcapDecodeErrors = r.Counter("pcap.decode_errors", "caai_pcap_decode_errors_total", "Uploads rejected as undecodable.")
	m.pcapBytes = r.Counter("pcap.bytes", "caai_pcap_bytes_total", "Capture bytes ingested.")
	r.Family("pcap.decode_ms", func() any { return float64(m.pcapDecode.Snapshot().Sum) / float64(time.Millisecond) },
		"caai_pcap_decode_seconds", "Per-upload capture decode+reassembly time.", telemetry.KindHistogram,
		func(p *telemetry.PromWriter, name string) { p.HistogramSamples(name, nil, m.pcapDecode.Snapshot()) })

	m.streamRequests = r.Counter("stream.requests", "caai_stream_requests_total", "Capture stream requests received (POST /v1/pcap/stream).")
	m.streamRejected = r.Counter("stream.rejected", "caai_stream_rejected_total", "Capture streams shed by the concurrency bound (429).")
	m.streamErrors = r.Counter("stream.errors", "caai_stream_errors_total", "Capture streams ended by a decode or transport error.")
	m.streamActive = r.Gauge("stream.active", "caai_stream_active", "Capture streams running now.")
	m.stream.Tracker = flow.TrackerMetrics{
		Live:          r.Gauge("stream.live_flows", "caai_stream_live_flows", "Flows resident across all running stream pipelines."),
		LiveHighWater: r.Gauge("stream.live_flows_high_water", "caai_stream_live_flows_high_water", "Most flows ever resident at once."),
		Epochs:        r.Counter("stream.epochs", "caai_stream_epochs_total", "Idle-expiry sweep epochs completed."),
		Expired:       r.Counter("stream.expired_flows", "caai_stream_expired_flows_total", "Flows closed by idle expiry."),
	}
	m.streamBytes = r.Counter("stream.bytes", "caai_stream_bytes_total", "Capture bytes accepted by stream uploads.")
	m.stream.Packets = r.Counter("stream.packets", "caai_stream_packets_total", "Capture records framed by stream pipelines.")
	m.stream.Flows = r.Counter("stream.flows", "caai_stream_flows_total", "Flows emitted by stream pipelines (expired+evicted+drained).")

	s.flight.Declare(r, "traces")
	telemetry.DeclareRuntime(r, "runtime")

	m.outcomes = r.CounterVec("outcomes", "caai_outcomes_total",
		"Identifications by outcome class (labeled/unsure/special/invalid, mirrors internal/eval).",
		"outcome", "labeled", "unsure", "special", "invalid")
	m.labels = r.CounterVec("labels", "caai_labels_total", "Identifications by reported label.", "label")
	latencyFamily(r, "stages", "caai_stage_duration_seconds",
		"Pipeline per-stage latency (queue wait, gather, feature, classify, cache).", "stage", m.stageSeries)
	latencyFamily(r, "endpoints", "caai_request_duration_seconds",
		"HTTP request latency by matched route.", "endpoint", m.endpointSeries)

	r.Family("models", func() any { return s.modelInfos() }, "", "", "", nil)
	r.Family("eval", func() any {
		s.evalMu.RLock()
		defer s.evalMu.RUnlock()
		if s.evalSummary == nil {
			return nil // an untyped nil leaves the key out
		}
		return s.evalSummary
	}, "", "", "", nil)
	return m
}

// countLabel tallies one identification under its outcome class and its
// reported label (special shapes and invalid traces get their own
// labels).
func (m *metrics) countLabel(resp IdentifyResponse) {
	label, outcome := resp.Label, outcomeOf(resp)
	class := outcome.String()
	switch outcome {
	case telemetry.OutcomeOK:
		class = "labeled"
	case telemetry.OutcomeInvalid:
		label = "INVALID"
	case telemetry.OutcomeSpecial:
		label = "SPECIAL:" + resp.Special
	}
	m.outcomes.Add(class, 1)
	m.labels.Add(label, 1)
}

// outcomeOf classifies one identification: invalid, else a special
// shape, else UNSURE, else ok. The sync trace, the outcome counters and
// a job's trace all read it.
func outcomeOf(resp IdentifyResponse) telemetry.Outcome {
	switch {
	case !resp.Valid:
		return telemetry.OutcomeInvalid
	case resp.Special != "":
		return telemetry.OutcomeSpecial
	case resp.Label == core.LabelUnsure:
		return telemetry.OutcomeUnsure
	}
	return telemetry.OutcomeOK
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

// series is one labelled latency histogram of a family.
type series struct {
	label string
	snap  telemetry.HistogramSnapshot
}

// stageSeries returns the stages that have observations, in pipeline
// order.
func (m *metrics) stageSeries() []series {
	var out []series
	for st, snap := range m.pipeline.Snapshot() {
		if snap.Count > 0 {
			out = append(out, series{telemetry.Stage(st).String(), snap})
		}
	}
	return out
}

// endpointSeries returns every route's histogram, sorted by pattern.
func (m *metrics) endpointSeries() []series {
	var out []series
	m.endpoints.Range(func(k, v any) bool {
		out = append(out, series{k.(string), v.(*telemetry.Histogram).Snapshot()})
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].label < out[j].label })
	return out
}

// latencyFamily declares a labelled latency-histogram family: the JSON
// body summarizes each series under key (left out while there is none),
// the exposition carries every bucket.
func latencyFamily(r *telemetry.Registry, key, name, help, label string, read func() []series) {
	r.Family(key, func() any {
		out := map[string]LatencySummary{}
		for _, s := range read() {
			out[s.label] = summarize(s.snap)
		}
		if len(out) == 0 {
			return nil
		}
		return out
	}, name, help, telemetry.KindHistogram, func(p *telemetry.PromWriter, name string) {
		for _, s := range read() {
			p.HistogramSamples(name, map[string]string{label: s.label}, s.snap)
		}
	})
}

// MetricsSnapshot is the GET /metrics JSON body as clients decode it.
// The server renders that body from the registry newMetrics declares;
// TestMetricsSnapshotMirrorsRegistry keeps the two in step.
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
	// (bytes, packets, flows).
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
	} `json:"stream"`

	// Census aggregates the fault-tolerance counters of every census
	// campaign run through POST /v1/census: probe retries and their
	// accumulated backoff, rate-limit deferrals, abandoned targets,
	// checkpoint writes, worker crashes, and the per-target contact-attempt
	// histogram (Attempts). Jobs counts accepted campaigns.
	Census struct {
		Jobs             int64                       `json:"jobs"`
		Probes           int64                       `json:"probes"`
		Retries          int64                       `json:"retries"`
		Deferrals        int64                       `json:"deferrals"`
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
