package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"time"

	"repro/internal/telemetry"
)

// Handler returns the service's HTTP API:
//
//	POST /v1/identify       synchronous single identification
//	POST /v1/batch          submit an async batch; 202 + job ID
//	POST /v1/pcap           upload a packet capture; async per-flow labels
//	POST /v1/pcap/stream    stream a live capture; NDJSON per-flow labels
//	                        as flows close (no size cap; backpressured)
//	POST /v1/census         launch a sharded census; 202 + job ID
//	GET  /v1/jobs/{id}      poll batch status and results
//	DELETE /v1/jobs/{id}    cancel a queued or running batch
//	GET  /v1/models         list registered models
//	POST /v1/models/reload  hot-swap file-backed models from disk
//	GET  /v1/traces         retained traces (filter by outcome/route/
//	                        min_duration_ms, newest first)
//	GET  /v1/traces/{id}    one trace's full span tree (id = the
//	                        request's X-Request-ID)
//	GET  /healthz           liveness + model inventory
//	GET  /metrics           service counters (JSON; Prometheus text with
//	                        ?format=prometheus or Accept: text/plain)
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/identify", s.handleIdentify)
	mux.HandleFunc("POST /v1/batch", s.handleBatch)
	mux.HandleFunc("POST /v1/pcap", s.handlePcap)
	mux.HandleFunc("POST /v1/pcap/stream", s.handlePcapStream)
	// PUT is what `curl -T` (and most streaming-upload clients) send;
	// the endpoint is upload-shaped either way.
	mux.HandleFunc("PUT /v1/pcap/stream", s.handlePcapStream)
	mux.HandleFunc("POST /v1/census", s.handleCensus)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobStatus)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobCancel)
	mux.HandleFunc("GET /v1/models", s.handleModels)
	mux.HandleFunc("POST /v1/models/reload", s.handleReload)
	mux.HandleFunc("GET /v1/traces", s.handleTraces)
	mux.HandleFunc("GET /v1/traces/{id}", s.handleTrace)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	// withTrace must wrap outermost: it serves the mux a request copy
	// (context attach), and the mux stamps the matched pattern on that
	// copy -- countRequests must be on the copy's side to read it.
	return s.withTrace(s.countRequests(mux))
}

// countRequests feeds the requests_total counter and the per-endpoint
// latency histograms. The route pattern is read back from the request
// after the mux matched it (the mux stamps r.Pattern on the same request
// value), so every histogram is keyed by route shape, not raw path;
// unmatched requests pool under "other".
func (s *Service) countRequests(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.metrics.requests.Add(1)
		start := time.Now()
		next.ServeHTTP(w, r)
		pattern := r.Pattern
		if pattern == "" {
			pattern = "other"
		}
		s.metrics.observeEndpoint(pattern, time.Since(start))
	})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorResponse{Error: fmt.Sprintf(format, args...)})
}

// maxBodyBytes bounds request bodies so an oversized POST cannot buffer
// unbounded JSON into memory before MaxBatchJobs is ever consulted (a
// MaxBatchJobs-sized batch of fully specified jobs fits comfortably).
const maxBodyBytes = 16 << 20

// errBodyTooLarge marks a rejected oversized body (mapped to 413).
var errBodyTooLarge = errors.New("request body exceeds the 16 MiB limit")

// decodeBody strictly decodes a JSON request body into v (unknown fields
// are rejected so typos in specs fail loudly instead of probing defaults),
// reading at most maxBodyBytes.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return errBodyTooLarge
		}
		return fmt.Errorf("decoding request body: %v", err)
	}
	return nil
}

// writeBodyError answers a decodeBody failure with the right status.
func writeBodyError(w http.ResponseWriter, err error) {
	status := http.StatusBadRequest
	if errors.Is(err, errBodyTooLarge) {
		status = http.StatusRequestEntityTooLarge
	}
	writeError(w, status, "%v", err)
}

// writeQueueFull answers transient back-pressure (errQueueFull) with 429
// and a Retry-After hint. Distinct from the terminal 503 of shutdown:
// a 429 tells clients the same request will succeed once the queue (or
// the sync backlog) drains.
func writeQueueFull(w http.ResponseWriter, err error) {
	w.Header().Set("Retry-After", "1")
	writeError(w, http.StatusTooManyRequests, "%v", err)
}

// writeSubmitError answers a rejected async-job submission: 429 for a
// full queue, 503 while shutting down, 404 for an unknown model, and 400
// for anything else (a request that failed validation).
func writeSubmitError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, errQueueFull):
		writeQueueFull(w, err)
	case errors.Is(err, errShuttingDown):
		writeError(w, http.StatusServiceUnavailable, "%v", err)
	case errors.Is(err, ErrNoModel):
		writeError(w, http.StatusNotFound, "%v", err)
	default:
		writeError(w, http.StatusBadRequest, "%v", err)
	}
}

func (s *Service) handleIdentify(w http.ResponseWriter, r *http.Request) {
	var req IdentifyRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeBodyError(w, err)
		return
	}
	resp, err := s.identify(r.Context(), req.Model, req.JobSpec)
	if err != nil {
		setOutcome(r.Context(), telemetry.OutcomeError)
		if errors.Is(err, errQueueFull) {
			// The sync backlog is saturated: shed load now instead of
			// parking another goroutine on the probe semaphore.
			writeQueueFull(w, err)
			return
		}
		status := http.StatusBadRequest
		switch {
		case errors.Is(err, ErrNoModel):
			status = http.StatusNotFound
		case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
			// The client went away while we waited for a probe slot; the
			// status is moot but 503 is the honest one.
			status = http.StatusServiceUnavailable
		}
		writeError(w, status, "%v", err)
		return
	}
	// Classify the identification for tail sampling: an UNSURE or
	// invalid outcome is a 200 the flight recorder must always keep.
	setOutcome(r.Context(), outcomeOf(resp))
	writeJSON(w, http.StatusOK, resp)
}

func (s *Service) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeBodyError(w, err)
		return
	}
	j, err := s.submit(r.Context(), req)
	if err != nil {
		writeSubmitError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, BatchAccepted{
		JobID:  j.id,
		Status: "/v1/jobs/" + j.id,
		Total:  len(j.specs),
	})
}

func (s *Service) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookupJob(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, j.status())
}

func (s *Service) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookupJob(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no job %q", r.PathValue("id"))
		return
	}
	j.requestCancel()
	writeJSON(w, http.StatusOK, j.status())
}

func (s *Service) handleModels(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"models": s.modelInfos()})
}

// reloadRequest optionally narrows POST /v1/models/reload to one model.
// Models always reload from the file they were loaded from; accepting a
// client-supplied path would let any API client probe or register
// arbitrary server-readable files.
type reloadRequest struct {
	Name string `json:"name,omitempty"`
}

func (s *Service) handleReload(w http.ResponseWriter, r *http.Request) {
	var req reloadRequest
	if r.ContentLength != 0 {
		if err := decodeBody(w, r, &req); err != nil {
			writeBodyError(w, err)
			return
		}
	}
	var reloaded []*Model
	var reloadErr error
	if req.Name != "" {
		m, err := s.registry.ReloadOne(req.Name)
		if err != nil {
			status := http.StatusBadRequest
			if errors.Is(err, ErrNoModel) {
				status = http.StatusNotFound
			}
			writeError(w, status, "%v", err)
			return
		}
		reloaded = []*Model{m}
	} else {
		// A failed file keeps its old entry serving while the others still
		// swap, so report what actually happened: the applied swaps AND
		// the per-model errors, never an error-only response that hides
		// generation bumps.
		reloaded, reloadErr = s.registry.Reload()
	}
	s.metrics.modelsReloaded.Add(int64(len(reloaded)))
	infos := make([]ModelInfo, 0, len(reloaded))
	for _, m := range reloaded {
		infos = append(infos, newModelInfo(m))
	}
	body := map[string]any{"reloaded": infos}
	status := http.StatusOK
	if reloadErr != nil {
		body["errors"] = strings.Split(reloadErr.Error(), "\n")
		status = http.StatusInternalServerError
	}
	writeJSON(w, status, body)
}

func (s *Service) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	status := "ok"
	code := http.StatusOK
	if s.registry.Len() == 0 {
		status = "no models loaded"
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, map[string]any{
		"status": status,
		"models": s.registry.Names(),
	})
}

func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if wantsPrometheus(r.URL.Query().Get("format"), r.Header.Get("Accept")) {
		w.Header().Set("Content-Type", telemetry.PromContentType)
		w.WriteHeader(http.StatusOK)
		// The status line is out: a failed write means the client left.
		_ = s.metrics.reg.WritePrometheus(w)
		return
	}
	writeJSON(w, http.StatusOK, s.metrics.reg.JSON())
}

// wantsPrometheus decides whether a GET /metrics request asked for the
// Prometheus text exposition instead of the default JSON snapshot: an
// explicit ?format=prometheus, or an Accept header naming text/plain or
// an OpenMetrics type (what Prometheus scrapers send). Browsers and the
// existing JSON consumers keep getting JSON.
func wantsPrometheus(format, accept string) bool {
	if format == "prometheus" {
		return true
	}
	if format != "" {
		return false
	}
	accept = strings.ToLower(accept)
	return strings.Contains(accept, "text/plain") || strings.Contains(accept, "openmetrics")
}
