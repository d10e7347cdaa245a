package service

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/telemetry"
)

// fetchMetrics GETs /metrics with the given query string and Accept header
// and returns the response content type and body.
func fetchMetrics(t *testing.T, base, query, accept string) (string, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, base+"/metrics"+query, nil)
	if err != nil {
		t.Fatal(err)
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.Header.Get("Content-Type"), string(body)
}

// TestMetricsPrometheusExposition drives a deterministic request sequence
// and checks the negotiated Prometheus rendering sample for sample: the
// content type, the counter values, the outcome and label breakdowns, and
// the pipeline-stage histogram series (count == sum of +Inf bucket). The
// JSON default must survive untouched for existing scrapers.
func TestMetricsPrometheusExposition(t *testing.T) {
	_, ts := newTestService(t, Config{}, &fakeClassifier{Label: "VEGAS", Confidence: 0.7})

	// Two misses + one cache hit, same sequence as TestHealthzAndMetrics.
	postJSON(t, ts.URL+"/v1/identify", identifyBody("VEGAS", 1))
	postJSON(t, ts.URL+"/v1/identify", identifyBody("VEGAS", 2))
	postJSON(t, ts.URL+"/v1/identify", identifyBody("VEGAS", 1))

	ct, prom := fetchMetrics(t, ts.URL, "?format=prometheus", "")
	if ct != telemetry.PromContentType {
		t.Fatalf("content type %q, want %q", ct, telemetry.PromContentType)
	}
	for _, want := range []string{
		"# TYPE caai_requests_total counter",
		"caai_identifications_total 2",
		"caai_cache_hits_total 1",
		"caai_cache_misses_total 2",
		`caai_labels_total{label="VEGAS"} 2`,
		`caai_outcomes_total{outcome="labeled"} 2`,
		`caai_outcomes_total{outcome="unsure"} 0`,
		"# TYPE caai_stage_duration_seconds histogram",
		`caai_stage_duration_seconds_count{stage="gather"} 2`,
		`caai_stage_duration_seconds_bucket{stage="gather",le="+Inf"} 2`,
		`caai_request_duration_seconds_count{endpoint="POST /v1/identify"} 3`,
	} {
		if !strings.Contains(prom, want) {
			t.Errorf("prometheus exposition missing %q", want)
		}
	}

	// Every census family is present even before any census ran, so
	// dashboards can predeclare queries against a fresh server.
	for _, want := range []string{
		"# TYPE caai_census_jobs_total counter",
		"caai_census_probes_total 0",
		"caai_census_retries_total 0",
		"caai_census_backoff_seconds_total 0",
		"caai_census_targets_abandoned_total 0",
		"caai_sync_rejected_total 0",
		`caai_census_attempts_bucket{le="+Inf"} 0`,
	} {
		if !strings.Contains(prom, want) {
			t.Errorf("prometheus exposition missing %q", want)
		}
	}

	// Flight-recorder and Go-runtime families are present from the first
	// scrape (the trace counters have seen the requests above; the runtime
	// gauges are read live). Values are asserted only where deterministic.
	for _, want := range []string{
		"# TYPE caai_trace_finished_total counter",
		"# TYPE caai_trace_retained_total counter",
		"# TYPE caai_trace_dropped_total counter",
		"# TYPE caai_trace_spans_total counter",
		"# TYPE caai_trace_stored gauge",
		"# TYPE caai_runtime_goroutines gauge",
		"# TYPE caai_runtime_heap_bytes gauge",
		"# TYPE caai_runtime_gc_cycles_total counter",
		"# TYPE caai_runtime_gc_pause_p99_seconds gauge",
		"# TYPE caai_runtime_sched_latency_p99_seconds gauge",
	} {
		if !strings.Contains(prom, want) {
			t.Errorf("prometheus exposition missing %q", want)
		}
	}
	// The three identify requests all finished; sampling may keep or drop
	// them, but the accounting must have seen them (the 3 identify posts
	// plus this /metrics scrape race's own in-flight request).
	if !strings.Contains(prom, "caai_trace_finished_total 3") {
		t.Errorf("trace finished counter missing the three identify requests:\n%s",
			grepLines(prom, "caai_trace_finished_total"))
	}

	// Accept negotiation selects Prometheus too; plain GET stays JSON.
	if ct, _ := fetchMetrics(t, ts.URL, "", "text/plain; version=0.0.4"); ct != telemetry.PromContentType {
		t.Errorf("Accept: text/plain negotiated content type %q", ct)
	}
	if ct, body := fetchMetrics(t, ts.URL, "", ""); !strings.Contains(ct, "application/json") || !strings.HasPrefix(strings.TrimSpace(body), "{") {
		t.Errorf("default GET /metrics = %q (%q...), want the JSON snapshot", ct, body[:min(len(body), 40)])
	}
}

// grepLines returns the exposition lines containing substr, for focused
// failure messages.
func grepLines(body, substr string) string {
	var out []string
	for _, line := range strings.Split(body, "\n") {
		if strings.Contains(line, substr) {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}

// TestMetricsOutcomeAccounting checks the satellite contract that every
// identification lands in exactly one outcome bucket and the buckets sum
// to identifications_total: a confident label, an under-threshold UNSURE
// verdict (low-confidence model), and an invalid gathering (server whose
// minimum MSS exceeds the whole probe ladder).
func TestMetricsOutcomeAccounting(t *testing.T) {
	registerFakeCodec()
	reg := NewRegistry()
	reg.Add("default", &fakeClassifier{Label: "RENO", Confidence: 0.9})
	reg.Add("shaky", &fakeClassifier{Label: "RENO", Confidence: core.UnsureThreshold / 2})
	s := New(reg, Config{})
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		srv.Close()
		s.Close()
	})

	postJSON(t, srv.URL+"/v1/identify", identifyBody("RENO", 1))
	shaky := identifyBody("RENO", 2)
	shaky["model"] = "shaky"
	postJSON(t, srv.URL+"/v1/identify", shaky)
	invalid := identifyBody("RENO", 3)
	invalid["server"] = map[string]any{"algorithm": "RENO", "min_mss": 9000}
	postJSON(t, srv.URL+"/v1/identify", invalid)

	var m MetricsSnapshot
	getJSON(t, srv.URL+"/metrics", &m)
	if m.Outcomes.Labeled != 1 || m.Outcomes.Unsure != 1 || m.Outcomes.Invalid != 1 || m.Outcomes.Special != 0 {
		t.Fatalf("outcomes = %+v, want labeled/unsure/invalid = 1/1/1", m.Outcomes)
	}
	sum := m.Outcomes.Labeled + m.Outcomes.Unsure + m.Outcomes.Special + m.Outcomes.Invalid
	if sum != m.Identifies {
		t.Fatalf("outcome sum %d != identifications_total %d", sum, m.Identifies)
	}
	if m.Labels[core.LabelUnsure] != 1 {
		t.Fatalf("labels = %v, want %s counted once", m.Labels, core.LabelUnsure)
	}
}

// TestQueueAndWorkerGauges runs one async batch to completion and checks
// the new gauges: the queue's high-water mark saw the enqueued job, the
// retention gauge tracks the finished job, and no worker is busy at rest.
func TestQueueAndWorkerGauges(t *testing.T) {
	_, ts := newTestService(t, Config{}, &fakeClassifier{Label: "CUBIC2", Confidence: 0.8})

	resp, body := postJSON(t, ts.URL+"/v1/batch", map[string]any{
		"jobs": []map[string]any{
			{"server": map[string]any{"algorithm": "CUBIC2"}, "seed": 1},
			{"server": map[string]any{"algorithm": "CUBIC2"}, "seed": 2},
		},
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("batch status %d: %s", resp.StatusCode, body)
	}
	var acc BatchAccepted
	if err := json.Unmarshal(body, &acc); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(10 * time.Second)
	for {
		var st JobStatus
		getJSON(t, ts.URL+"/v1/jobs/"+acc.JobID, &st)
		if st.State == StateDone {
			break
		}
		if st.State == StateFailed || st.State == StateCancelled {
			t.Fatalf("job ended %s: %s", st.State, st.Error)
		}
		if time.Now().After(deadline) {
			t.Fatal("batch job did not finish")
		}
		time.Sleep(5 * time.Millisecond)
	}

	var m MetricsSnapshot
	getJSON(t, ts.URL+"/metrics", &m)
	if m.QueueHighWater < 1 {
		t.Errorf("queue_high_water = %d, want >= 1", m.QueueHighWater)
	}
	if m.FinishedRetained != 1 {
		t.Errorf("finished_jobs_retained = %d, want 1", m.FinishedRetained)
	}
	if m.WorkersBusy != 0 {
		t.Errorf("workers_busy = %d at rest", m.WorkersBusy)
	}
	if st, ok := m.Stages["queue_wait"]; !ok || st.Count < 1 {
		t.Errorf("stages = %v, want a queue_wait entry", m.Stages)
	}
}
