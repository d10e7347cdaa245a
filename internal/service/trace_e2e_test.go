package service

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/telemetry"
)

// lockedBuffer is a goroutine-safe io.Writer for capturing access-log
// lines from concurrent request completions.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// postJSONWithID posts a JSON body with an explicit X-Request-ID header
// and returns the response (body fully read) plus its bytes.
func postJSONWithID(t *testing.T, url, reqID string, body any) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if reqID != "" {
		req.Header.Set("X-Request-ID", reqID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// spanNames collects kind/name pairs for containment assertions.
func spanNames(tr telemetry.Trace) map[string]bool {
	names := map[string]bool{}
	for _, sp := range tr.Spans {
		names[sp.Kind+"/"+sp.Name] = true
	}
	return names
}

// TestTraceEndToEnd is the PR's acceptance pin: a slow request and an
// UNSURE request both come back with full span trees on
// GET /v1/traces/{id}, keyed by the same ID the client saw echoed in
// X-Request-ID, the job payload, and the access log line.
func TestTraceEndToEnd(t *testing.T) {
	registerFakeCodec()
	reg := NewRegistry()
	reg.Add("default", &fakeClassifier{Label: "RENO", Confidence: 0.9})
	reg.Add("shaky", &fakeClassifier{Label: "RENO", Confidence: core.UnsureThreshold / 2})
	var logBuf lockedBuffer
	s := New(reg, Config{
		// Normal sampling off and a 1ns slow threshold: every OK request
		// is retained as "slow", every UNSURE one as "outcome" -- the
		// retention reasons become assertable.
		TraceSampleN: -1,
		TraceSlow:    time.Nanosecond,
		AccessLog:    slog.New(slog.NewTextHandler(&logBuf, nil)),
	})
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		srv.Close()
		s.Close()
	})

	// 1. A (threshold-)slow OK request under a client-supplied ID. The
	// boundary must echo exactly that ID back.
	const slowID = "e2e-slow-request"
	resp, data := postJSONWithID(t, srv.URL+"/v1/identify", slowID, identifyBody("RENO", 1))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("identify status %d: %s", resp.StatusCode, data)
	}
	if got := resp.Header.Get("X-Request-ID"); got != slowID {
		t.Fatalf("X-Request-ID echo %q, want %q", got, slowID)
	}

	// 2. An UNSURE request with a minted ID: the echoed header is the
	// 16-hex trace ID itself.
	shaky := identifyBody("RENO", 2)
	shaky["model"] = "shaky"
	resp, data = postJSONWithID(t, srv.URL+"/v1/identify", "", shaky)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("shaky identify status %d: %s", resp.StatusCode, data)
	}
	var unsureResp IdentifyResponse
	if err := json.Unmarshal(data, &unsureResp); err != nil {
		t.Fatal(err)
	}
	if unsureResp.Label != core.LabelUnsure {
		t.Fatalf("shaky model answered %q, want %q", unsureResp.Label, core.LabelUnsure)
	}
	mintedID := resp.Header.Get("X-Request-ID")
	if _, ok := telemetry.ParseTraceID(mintedID); !ok {
		t.Fatalf("minted X-Request-ID %q is not a 16-hex trace ID", mintedID)
	}

	// 3. Both span trees come back under the IDs the client holds.
	var slowTrace telemetry.Trace
	if r := getJSON(t, srv.URL+"/v1/traces/"+slowID, &slowTrace); r.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/traces/%s status %d", slowID, r.StatusCode)
	}
	if slowTrace.RequestID != slowID || slowTrace.Outcome != "ok" || slowTrace.Retained != telemetry.RetainSlow {
		t.Fatalf("slow trace = %+v, want request_id %q, outcome ok, retained slow", slowTrace, slowID)
	}
	if slowTrace.Route != "POST /v1/identify" {
		t.Fatalf("slow trace route %q", slowTrace.Route)
	}
	names := spanNames(slowTrace)
	for _, want := range []string{"stage/cache", "stage/gather", "stage/feature", "stage/classify", "event/cache_miss"} {
		if !names[want] {
			t.Errorf("slow trace span %s missing (have %v)", want, names)
		}
	}

	var unsureTrace telemetry.Trace
	if r := getJSON(t, srv.URL+"/v1/traces/"+mintedID, &unsureTrace); r.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/traces/%s status %d", mintedID, r.StatusCode)
	}
	if unsureTrace.ID != mintedID {
		t.Fatalf("unsure trace id %q, want the echoed header %q", unsureTrace.ID, mintedID)
	}
	if unsureTrace.Outcome != "unsure" || unsureTrace.Retained != telemetry.RetainOutcome {
		t.Fatalf("unsure trace = outcome %q retained %q, want unsure/outcome", unsureTrace.Outcome, unsureTrace.Retained)
	}
	if ns := spanNames(unsureTrace); !ns["event/unsure"] {
		t.Errorf("unsure trace has no unsure event: %v", ns)
	}

	// 4. The listing filters narrow correctly and reject junk.
	var listing struct {
		Traces []telemetry.TraceSummary `json:"traces"`
	}
	getJSON(t, srv.URL+"/v1/traces?outcome=unsure", &listing)
	found := false
	for _, tr := range listing.Traces {
		if tr.Outcome != "unsure" {
			t.Fatalf("outcome filter leaked %+v", tr)
		}
		found = found || tr.ID == mintedID
	}
	if !found {
		t.Fatalf("outcome=unsure listing misses %s: %+v", mintedID, listing.Traces)
	}
	getJSON(t, srv.URL+"/v1/traces?route="+url.QueryEscape("POST /v1/identify")+"&limit=1", &listing)
	if len(listing.Traces) != 1 || listing.Traces[0].Route != "POST /v1/identify" {
		t.Fatalf("route+limit filter = %+v", listing.Traces)
	}
	if r := getJSON(t, srv.URL+"/v1/traces?outcome=bogus", nil); r.StatusCode != http.StatusBadRequest {
		t.Fatalf("bogus outcome filter status %d, want 400", r.StatusCode)
	}
	if r := getJSON(t, srv.URL+"/v1/traces/ffffffffffffffff", nil); r.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown trace status %d, want 404", r.StatusCode)
	}

	// 5. An async batch under a supplied ID: the job payload echoes the
	// request ID and its trace ID, and job completion re-finishes the
	// trace so the retained tree covers the async work (route job:batch).
	const batchID = "e2e-batch-request"
	resp, data = postJSONWithID(t, srv.URL+"/v1/batch", batchID, map[string]any{
		"jobs": []map[string]any{
			{"server": map[string]any{"algorithm": "RENO"}, "seed": 11},
			{"server": map[string]any{"algorithm": "RENO"}, "seed": 12},
		},
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("batch status %d: %s", resp.StatusCode, data)
	}
	var acc BatchAccepted
	if err := json.Unmarshal(data, &acc); err != nil {
		t.Fatal(err)
	}
	wantTraceID := telemetry.HashTraceID(batchID).String()
	deadline := time.Now().Add(10 * time.Second)
	for {
		var st JobStatus
		getJSON(t, srv.URL+"/v1/jobs/"+acc.JobID, &st)
		if st.RequestID != batchID || st.TraceID != wantTraceID {
			t.Fatalf("job payload identity = %q/%q, want %q/%q", st.RequestID, st.TraceID, batchID, wantTraceID)
		}
		if st.State == StateDone {
			break
		}
		if st.State == StateFailed || st.State == StateCancelled {
			t.Fatalf("batch ended %s: %s", st.State, st.Error)
		}
		if time.Now().After(deadline) {
			t.Fatal("batch job did not finish")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Job completion re-finishes the trace asynchronously with the
	// worker's retire; poll until the job-side scan replaced the
	// acceptance-side one.
	var jobTrace telemetry.Trace
	for {
		getJSON(t, srv.URL+"/v1/traces/"+batchID, &jobTrace)
		if jobTrace.Route == "job:batch" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("trace never re-finished as job:batch: %+v", jobTrace)
		}
		time.Sleep(5 * time.Millisecond)
	}
	jobNames := spanNames(jobTrace)
	for _, want := range []string{"stage/queue_wait", "stage/classify", "event/shard_assign"} {
		if !jobNames[want] {
			t.Errorf("job trace span %s missing (have %v)", want, jobNames)
		}
	}
	// Every job is classified on its own as it is gathered: one classify
	// span per job, tagged with that job's index.
	classified := map[int64]int{}
	for _, sp := range jobTrace.Spans {
		if sp.Kind == "stage" && sp.Name == "classify" {
			classified[sp.Arg]++
		}
	}
	if want := map[int64]int{0: 1, 1: 1}; !reflect.DeepEqual(classified, want) {
		t.Errorf("job trace classify spans per job tag = %v, want %v", classified, want)
	}

	// 6. The access log carries the same IDs (one line per request, keyed
	// id=...; slog's text handler quotes the space-bearing route values).
	logs := logBuf.String()
	for _, id := range []string{slowID, mintedID, batchID} {
		if !strings.Contains(logs, "id="+id) {
			t.Errorf("access log misses id=%s:\n%s", id, logs)
		}
	}
	if !strings.Contains(logs, `route="POST /v1/identify"`) {
		t.Errorf("access log has no matched route:\n%s", logs)
	}
}

// TestJobTraceKeepsInvalidOutcome: a batch job's trace carries the
// outcome class of its results, as a sync answer's does. A batch whose
// one spec is rejected for its MSS is kept as invalid, not unsure.
func TestJobTraceKeepsInvalidOutcome(t *testing.T) {
	_, ts := newTestService(t, Config{TraceSampleN: -1}, &fakeClassifier{Label: "RENO", Confidence: 0.9})
	const batchID = "batch-invalid-mss"
	resp, data := postJSONWithID(t, ts.URL+"/v1/batch", batchID, map[string]any{
		"jobs": []map[string]any{{"server": map[string]any{"algorithm": "RENO", "min_mss": 2000}, "seed": 3}},
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("batch status %d: %s", resp.StatusCode, data)
	}
	var acc BatchAccepted
	if err := json.Unmarshal(data, &acc); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	var tr telemetry.Trace
	for {
		// Until the job's re-finish retains the trace, this is a 404.
		tr = telemetry.Trace{}
		if getJSON(t, ts.URL+"/v1/traces/"+batchID, &tr); tr.Route == "job:batch" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job trace never retained: %+v", tr)
		}
		time.Sleep(5 * time.Millisecond)
	}
	var st JobStatus
	getJSON(t, ts.URL+"/v1/jobs/"+acc.JobID, &st)
	if len(st.Results) != 1 || st.Results[0].Valid {
		t.Fatalf("job results = %+v, want one invalid answer", st.Results)
	}
	if tr.Outcome != "invalid" || tr.Retained != telemetry.RetainOutcome {
		t.Fatalf("job trace = outcome %q retained %q, want invalid/outcome", tr.Outcome, tr.Retained)
	}
}
