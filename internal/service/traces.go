package service

import (
	"net/http"
	"strconv"
	"time"

	"repro/internal/telemetry"
)

// handleTraces answers GET /v1/traces: retained-trace summaries, newest
// first. Query parameters narrow the listing:
//
//	?outcome=unsure          one of ok/unsure/special/invalid/error
//	?route=POST+/v1/identify exact matched-route pattern
//	?min_duration_ms=250     only traces at least this slow
//	?limit=20                cap the result count
func (s *Service) handleTraces(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	fl := telemetry.TraceFilter{
		Outcome: q.Get("outcome"),
		Route:   q.Get("route"),
	}
	if fl.Outcome != "" {
		if _, ok := telemetry.ParseOutcome(fl.Outcome); !ok {
			writeError(w, http.StatusBadRequest, "outcome: want one of ok/unsure/special/invalid/error, got %q", fl.Outcome)
			return
		}
	}
	if v := q.Get("min_duration_ms"); v != "" {
		ms, err := strconv.ParseFloat(v, 64)
		if err != nil || ms < 0 {
			writeError(w, http.StatusBadRequest, "min_duration_ms: want a non-negative number, got %q", v)
			return
		}
		fl.MinDuration = time.Duration(ms * float64(time.Millisecond))
	}
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, "limit: want a non-negative integer, got %q", v)
			return
		}
		fl.Limit = n
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"traces": s.flight.List(fl),
	})
}

// handleTrace answers GET /v1/traces/{id} with the full span tree of one
// retained trace. The key is the X-Request-ID the client saw: a minted
// 16-hex ID or its own supplied value (hashed the same way the boundary
// hashed it).
func (s *Service) handleTrace(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("id")
	t, ok := s.flight.Lookup(key)
	if !ok {
		writeError(w, http.StatusNotFound, "no retained trace %q (dropped by tail sampling, evicted, or never seen)", key)
		return
	}
	writeJSON(w, http.StatusOK, t)
}
