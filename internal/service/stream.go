package service

import (
	"encoding/json"
	"errors"
	"net/http"

	"repro/internal/flow"
	"repro/internal/telemetry"
)

// StreamEvent is one NDJSON line of the POST /v1/pcap/stream response.
// While the upload runs, each closed flow arrives as a Flow event the
// moment its classification lands; the final line is a Capture event
// with the merged pipeline statistics (and Error when the stream died
// mid-way: the status code was committed long before).
type StreamEvent struct {
	// RequestID echoes the stream request's X-Request-ID on every line,
	// so interleaved NDJSON from several captures stays correlatable
	// after the fact (log shippers drop header context).
	RequestID string             `json:"request_id,omitempty"`
	Flow      *IdentifyResponse  `json:"flow,omitempty"`
	Capture   *flow.CaptureStats `json:"capture,omitempty"`
	Error     string             `json:"error,omitempty"`
}

// handlePcapStream accepts an unbounded pcap/pcapng byte stream (a live
// capture piped straight off an interface, or an endless file) and
// answers with chunked NDJSON: one line per classified flow, emitted as
// the flow closes -- idle past the epoch-expiry threshold, evicted, or
// drained at end of stream. Unlike POST /v1/pcap there is no body size
// cap and no job indirection; backpressure is the bound. The handler's
// goroutine reads, decodes and classifies in one loop, so while
// classification runs the body is not read and a slow consumer costs
// the client throughput, not the server memory. ?model= selects the
// registry model. Concurrent streams beyond Config.MaxStreams are shed
// with 429.
func (s *Service) handlePcapStream(w http.ResponseWriter, r *http.Request) {
	s.metrics.streamRequests.Add(1)
	modelName := r.URL.Query().Get("model")
	model, err := s.registry.Get(modelName)
	if err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	select {
	case s.streamSem <- struct{}{}:
	default:
		s.metrics.streamRejected.Add(1)
		writeQueueFull(w, errStreamsBusy)
		return
	}
	defer func() { <-s.streamSem }()
	s.metrics.streamActive.Add(1)
	defer s.metrics.streamActive.Add(-1)

	// Results interleave with the still-uploading body, so HTTP/1.x needs
	// full-duplex explicitly enabled (HTTP/2 has it always; the error is
	// only "unsupported protocol", safe to ignore).
	rc := http.NewResponseController(w)
	_ = rc.EnableFullDuplex()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	_ = rc.Flush()

	version := model.Version()
	reqID := requestIDFrom(r.Context())
	enc := json.NewEncoder(w)
	// The sink runs on this goroutine, between reads of the body, so
	// encoding to w needs no lock.
	stats, err := flow.IdentifyStream(r.Context(), countingReader{r.Body, s.metrics.streamBytes},
		model.Identifier(), flow.StreamConfig{Metrics: &s.metrics.stream},
		func(fi flow.FlowIdentification) {
			resp := toFlowResponse(version, fi)
			s.metrics.identifies.Add(1)
			s.metrics.countLabel(resp)
			_ = enc.Encode(StreamEvent{RequestID: reqID, Flow: &resp})
			_ = rc.Flush()
		})
	final := StreamEvent{RequestID: reqID, Capture: &stats}
	if err != nil {
		s.metrics.streamErrors.Add(1)
		setOutcome(r.Context(), telemetry.OutcomeError)
		final.Error = err.Error()
	}
	_ = enc.Encode(final)
	_ = rc.Flush()
}

// errStreamsBusy sheds stream requests past the MaxStreams bound.
var errStreamsBusy = errors.New("concurrent capture streams exhausted; retry shortly")
