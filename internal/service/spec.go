package service

import (
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/cc"
	"repro/internal/census/shard"
	"repro/internal/core"
	"repro/internal/netem"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/websim"
)

// ServerSpec is the wire description of a simulated Web server to probe.
// Only Algorithm is required; everything else overrides the cooperative
// testbed defaults (see websim.Testbed), which lets clients reproduce the
// census's awkward servers -- pipelining limits, tiny pages, F-RTO,
// ssthresh caching, proxies -- over the API.
type ServerSpec struct {
	// Name labels the server in results; defaults to "testbed-<algorithm>".
	Name string `json:"name,omitempty"`
	// Algorithm is the congestion avoidance algorithm (a cc registry key).
	Algorithm string `json:"algorithm"`
	// ProxyAlgorithm models a TCP proxy splitting the connection.
	ProxyAlgorithm string `json:"proxy_algorithm,omitempty"`
	// MinMSS is the smallest MSS the server accepts (default 100).
	MinMSS int `json:"min_mss,omitempty"`
	// MaxRequests caps pipelined HTTP requests (default unlimited).
	MaxRequests int `json:"max_requests,omitempty"`
	// DefaultPageBytes / LongestPageBytes are the page sizes (default 64 MiB).
	DefaultPageBytes int64 `json:"default_page_bytes,omitempty"`
	LongestPageBytes int64 `json:"longest_page_bytes,omitempty"`
	// TCP stack quirks (all default off).
	FRTO            bool `json:"frto,omitempty"`
	SsthreshCaching bool `json:"ssthresh_caching,omitempty"`
	IgnoreRTO       bool `json:"ignore_rto,omitempty"`
}

// build materializes the spec into a websim.Server, starting from the
// testbed defaults.
func (s ServerSpec) build() (*websim.Server, error) {
	if s.Algorithm == "" {
		return nil, fmt.Errorf("server.algorithm is required")
	}
	if _, err := cc.New(s.Algorithm); err != nil {
		return nil, fmt.Errorf("server.algorithm: %v", err)
	}
	if s.ProxyAlgorithm != "" {
		if _, err := cc.New(s.ProxyAlgorithm); err != nil {
			return nil, fmt.Errorf("server.proxy_algorithm: %v", err)
		}
	}
	srv := websim.Testbed(s.Algorithm)
	if s.Name != "" {
		srv.Name = s.Name
	}
	srv.ProxyAlgorithm = s.ProxyAlgorithm
	if s.MinMSS > 0 {
		srv.MinMSS = s.MinMSS
	}
	if s.MaxRequests > 0 {
		srv.MaxRequests = s.MaxRequests
	}
	if s.DefaultPageBytes > 0 {
		srv.DefaultPageBytes = s.DefaultPageBytes
	}
	if s.LongestPageBytes > 0 {
		srv.LongestPageBytes = s.LongestPageBytes
	}
	srv.FRTO = s.FRTO
	srv.SsthreshCaching = s.SsthreshCaching
	srv.IgnoreRTO = s.IgnoreRTO
	return srv, nil
}

// ConditionSpec is the wire description of the emulated network path,
// covering the paper's three dimensions plus the extended impairments the
// evaluation matrix sweeps (reordering, duplication, Gilbert–Elliott
// burst loss).
type ConditionSpec struct {
	// MeanRTTMs is the mean path RTT in milliseconds (default 50).
	MeanRTTMs float64 `json:"mean_rtt_ms,omitempty"`
	// RTTStdDevMs is the RTT standard deviation in milliseconds.
	RTTStdDevMs float64 `json:"rtt_stddev_ms,omitempty"`
	// LossRate is the per-packet loss probability in [0, 1].
	LossRate float64 `json:"loss_rate,omitempty"`
	// ReorderRate is the probability a data packet is overtaken by its
	// successor, in [0, 1].
	ReorderRate float64 `json:"reorder_rate,omitempty"`
	// DupRate is the probability a data packet arrives twice, in [0, 1].
	DupRate float64 `json:"dup_rate,omitempty"`
	// Burst loss (Gilbert–Elliott): active when BurstLossRate > 0, then
	// replacing LossRate. BurstPGoodBad/BurstPBadGood are the per-packet
	// state transition probabilities; BurstGoodLossRate is the residual
	// loss in the good state.
	BurstLossRate     float64 `json:"burst_loss_rate,omitempty"`
	BurstPGoodBad     float64 `json:"burst_p_good_bad,omitempty"`
	BurstPBadGood     float64 `json:"burst_p_bad_good,omitempty"`
	BurstGoodLossRate float64 `json:"burst_good_loss_rate,omitempty"`
}

func (c ConditionSpec) build() (netem.Condition, error) {
	if c.MeanRTTMs < 0 || c.RTTStdDevMs < 0 {
		return netem.Condition{}, fmt.Errorf("condition RTTs must be non-negative")
	}
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"loss_rate", c.LossRate},
		{"reorder_rate", c.ReorderRate},
		{"dup_rate", c.DupRate},
		{"burst_loss_rate", c.BurstLossRate},
		{"burst_p_good_bad", c.BurstPGoodBad},
		{"burst_p_bad_good", c.BurstPBadGood},
		{"burst_good_loss_rate", c.BurstGoodLossRate},
	} {
		if p.v < 0 || p.v > 1 {
			return netem.Condition{}, fmt.Errorf("condition.%s must be in [0, 1]", p.name)
		}
	}
	if c.BurstLossRate == 0 && (c.BurstPGoodBad != 0 || c.BurstPBadGood != 0 || c.BurstGoodLossRate != 0) {
		return netem.Condition{}, fmt.Errorf("condition burst_* knobs need burst_loss_rate > 0")
	}
	if c.BurstLossRate > 0 && c.BurstPGoodBad == 0 && c.BurstGoodLossRate == 0 {
		// The chain would never leave the lossless good state: the caller
		// asked for burst loss and would silently get a clean path.
		return netem.Condition{}, fmt.Errorf("condition.burst_loss_rate needs burst_p_good_bad > 0 (or burst_good_loss_rate > 0)")
	}
	mean := c.MeanRTTMs
	if mean == 0 {
		mean = 50
	}
	return netem.Condition{
		MeanRTT:     time.Duration(mean * float64(time.Millisecond)),
		RTTStdDev:   time.Duration(c.RTTStdDevMs * float64(time.Millisecond)),
		LossRate:    c.LossRate,
		ReorderRate: c.ReorderRate,
		DupRate:     c.DupRate,
		GEPGoodBad:  c.BurstPGoodBad,
		GEPBadGood:  c.BurstPBadGood,
		GEGoodLoss:  c.BurstGoodLossRate,
		GEBadLoss:   c.BurstLossRate,
	}, nil
}

// JobSpec is one identification request: a server under a condition.
type JobSpec struct {
	Server    ServerSpec    `json:"server"`
	Condition ConditionSpec `json:"condition"`
	// Seed pins the job's randomness so results are reproducible (and
	// cacheable). 0 is normalized to 1: the service is deterministic by
	// default, vary Seed explicitly to resample.
	Seed int64 `json:"seed,omitempty"`
}

// normalize applies the spec defaults that participate in the cache
// fingerprint, so equivalent requests share a cache entry.
func (j JobSpec) normalize() JobSpec {
	if j.Seed == 0 {
		j.Seed = 1
	}
	if j.Condition.MeanRTTMs == 0 {
		j.Condition.MeanRTTMs = 50
	}
	if j.Server.Name == "" {
		j.Server.Name = "testbed-" + j.Server.Algorithm
	}
	return j
}

// fingerprint canonically encodes the normalized spec. Combined with the
// model version it is the result-cache key: identification is a pure
// function of (model, server, condition, seed).
func (j JobSpec) fingerprint() string {
	b, err := json.Marshal(j.normalize())
	if err != nil {
		// Marshalling a plain struct of scalars cannot fail.
		panic("service: fingerprinting job spec: " + err.Error())
	}
	return string(b)
}

// IdentifyRequest is the POST /v1/identify body.
type IdentifyRequest struct {
	// Model selects a registry model by name; empty uses the default.
	Model string `json:"model,omitempty"`
	JobSpec
}

// IdentifyResponse is the identification outcome on the wire.
type IdentifyResponse struct {
	// Model is the full version of the model that answered (name@generation).
	Model string `json:"model"`
	// Server echoes the probed server's name.
	Server string `json:"server"`
	// Label, Confidence, Special, Valid, Reason, Wmax and MSS mirror
	// core.Identification.
	Label      string  `json:"label,omitempty"`
	Confidence float64 `json:"confidence,omitempty"`
	Special    string  `json:"special,omitempty"`
	Valid      bool    `json:"valid"`
	Reason     string  `json:"reason,omitempty"`
	Wmax       int     `json:"wmax,omitempty"`
	MSS        int     `json:"mss,omitempty"`
	// Features is the extracted feature vector (omitted for invalid and
	// special traces).
	Features []float64 `json:"features,omitempty"`
	// SimulatedMs is the simulated probing time in milliseconds (for
	// capture jobs: the captured flows' wall-clock span).
	SimulatedMs float64 `json:"simulated_ms"`
	// Cached reports whether the result came from the LRU cache.
	Cached bool `json:"cached"`
	// Flow carries per-flow metadata on POST /v1/pcap job results; absent
	// for probed identifications.
	Flow *FlowInfo `json:"flow,omitempty"`
	// Timings is the per-stage wall-clock breakdown of the pipeline run
	// that produced this result (absent when span recording is off). On a
	// cached response it describes the run that filled the cache, not this
	// request.
	Timings *StageTimingsMs `json:"timings,omitempty"`
	// Text is the human-readable rendering of the identification.
	Text string `json:"text"`
}

// StageTimingsMs is the wire form of a per-stage span breakdown, in
// milliseconds. Stage meanings follow internal/telemetry: queue_wait is
// time waiting for an execution slot, gather the probe (or capture
// decode) span, feature extraction, classify the model call (a block
// sample's share of its batched call), cache the service-side lookup.
type StageTimingsMs struct {
	QueueWaitMs float64 `json:"queue_wait_ms,omitempty"`
	GatherMs    float64 `json:"gather_ms,omitempty"`
	FeatureMs   float64 `json:"feature_ms,omitempty"`
	ClassifyMs  float64 `json:"classify_ms,omitempty"`
	CacheMs     float64 `json:"cache_ms,omitempty"`
}

// stageTimingsMs renders a recorded span breakdown for the wire (nil when
// nothing was recorded, so untimed paths stay byte-identical).
func stageTimingsMs(t telemetry.StageTimings) *StageTimingsMs {
	if t.Zero() {
		return nil
	}
	ms := func(s telemetry.Stage) float64 { return float64(t[s]) / float64(time.Millisecond) }
	return &StageTimingsMs{
		QueueWaitMs: ms(telemetry.StageQueueWait),
		GatherMs:    ms(telemetry.StageGather),
		FeatureMs:   ms(telemetry.StageFeature),
		ClassifyMs:  ms(telemetry.StageClassify),
		CacheMs:     ms(telemetry.StageCache),
	}
}

// toResponse converts a pipeline identification to its wire form.
func toResponse(modelVersion, server string, id core.Identification) IdentifyResponse {
	resp := IdentifyResponse{
		Model:       modelVersion,
		Server:      server,
		Valid:       id.Valid,
		Wmax:        id.Wmax,
		MSS:         id.MSS,
		SimulatedMs: float64(id.Elapsed) / float64(time.Millisecond),
		Text:        id.String(),
	}
	switch {
	case !id.Valid:
		resp.Reason = string(id.Reason)
	case id.Special != trace.SpecialNone:
		resp.Special = id.Special.String()
	default:
		resp.Label = id.Label
		resp.Confidence = id.Confidence
		resp.Features = append([]float64(nil), id.Vector.Slice()...)
	}
	resp.Timings = stageTimingsMs(id.Timings)
	return resp
}

// BatchRequest is the POST /v1/batch body.
type BatchRequest struct {
	// Model selects a registry model by name; empty uses the default.
	Model string `json:"model,omitempty"`
	// Jobs are the identification jobs; at least one is required.
	Jobs []JobSpec `json:"jobs"`
}

// BatchAccepted is the POST /v1/batch response: poll Status for results.
type BatchAccepted struct {
	JobID  string `json:"job_id"`
	Status string `json:"status_url"`
	Total  int    `json:"total"`
}

// JobStatus is the GET /v1/jobs/{id} response.
type JobStatus struct {
	ID    string `json:"id"`
	State string `json:"state"`
	// RequestID/TraceID echo the accepting request's correlation
	// identity: RequestID is the X-Request-ID that 202 carried, TraceID
	// the flight-recorder key for GET /v1/traces/{id}. Absent when the
	// job was submitted outside the HTTP surface.
	RequestID string             `json:"request_id,omitempty"`
	TraceID   string             `json:"trace_id,omitempty"`
	Total     int                `json:"total"`
	Completed int                `json:"completed"`
	CacheHits int                `json:"cache_hits"`
	Error     string             `json:"error,omitempty"`
	Results   []IdentifyResponse `json:"results,omitempty"`
	// Census carries a census job's progress and demographic table;
	// absent for batch and capture jobs.
	Census *CensusStatus `json:"census,omitempty"`
}

// CensusRequest is the POST /v1/census body: generate a synthetic server
// population and measure it through the fault-tolerant sharded runner
// (internal/census/shard), producing the paper's Table IV demographics.
// Checkpointing is not exposed over the API -- accepting a client-supplied
// directory would let any client write server-side paths (same rationale
// as the reload endpoint refusing client paths); use cmd/caai-census for
// resumable campaigns.
type CensusRequest struct {
	// Model selects a registry model by name; empty uses the default.
	Model string `json:"model,omitempty"`
	// Servers is the population size (required; capped at
	// MaxCensusServers so one request cannot pin a census the size of
	// the paper's full 63 124-server study without operator involvement).
	Servers int `json:"servers"`
	// Seed drives population generation and probing through
	// census.Campaign, so a service census reproduces cmd/caai-census's
	// table for the same seed and model. 0 is normalized to 2011.
	Seed int64 `json:"seed,omitempty"`
	// Workers is the coordinator's worker count (0 = engine default
	// parallelism, at most MaxCensusWorkers).
	Workers int `json:"workers,omitempty"`
	// MaxAttempts and MaxDeferrals bound the retry taxonomy (0 = the
	// shard package defaults: 4 attempts, 8 deferrals; at most
	// MaxCensusAttempts and MaxCensusDeferrals).
	MaxAttempts  int `json:"max_attempts,omitempty"`
	MaxDeferrals int `json:"max_deferrals,omitempty"`
	// Fault optionally injects a deterministic fault plan, exercising
	// the retry/abandon machinery and worker crashes end to end over the
	// API.
	Fault *shard.FaultPlan `json:"fault,omitempty"`
}

// CensusStatus is the census slice of a JobStatus: the sharded runner's
// progress counters and the Table IV rendering over completed targets --
// partial while the job runs, final once it is done.
type CensusStatus struct {
	Progress shard.Progress `json:"progress"`
	TableIV  string         `json:"table_iv,omitempty"`
}

// errorResponse is the JSON error envelope every non-2xx response uses.
type errorResponse struct {
	Error string `json:"error"`
}
