package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"testing"
	"time"
)

// newTestService spins up a service over an in-memory fake model and
// returns it with its HTTP test server.
func newTestService(t *testing.T, cfg Config, model *fakeClassifier) (*Service, *httptest.Server) {
	t.Helper()
	registerFakeCodec()
	reg := NewRegistry()
	reg.Add("default", model)
	s := New(reg, cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
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

func getJSON(t *testing.T, url string, into any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if into != nil {
		if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
			t.Fatal(err)
		}
	}
	return resp
}

func identifyBody(alg string, seed int64) map[string]any {
	return map[string]any{
		"server":    map[string]any{"algorithm": alg},
		"condition": map[string]any{"mean_rtt_ms": 40},
		"seed":      seed,
	}
}

func TestIdentifyEndpointAndCacheHit(t *testing.T) {
	_, ts := newTestService(t, Config{}, &fakeClassifier{Label: "CUBIC2", Confidence: 0.93})

	resp, data := postJSON(t, ts.URL+"/v1/identify", identifyBody("CUBIC2", 7))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var out IdentifyResponse
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if !out.Valid || out.Label != "CUBIC2" || out.Confidence != 0.93 {
		t.Fatalf("identify = %+v", out)
	}
	if out.Cached {
		t.Fatal("first identification claims to be cached")
	}
	if out.Model != "default@1" {
		t.Fatalf("model version = %s, want default@1", out.Model)
	}
	if len(out.Features) == 0 || out.Wmax == 0 {
		t.Fatalf("missing pipeline detail in %+v", out)
	}

	// The identical request must be served from the cache.
	resp, data = postJSON(t, ts.URL+"/v1/identify", identifyBody("CUBIC2", 7))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var again IdentifyResponse
	if err := json.Unmarshal(data, &again); err != nil {
		t.Fatal(err)
	}
	if !again.Cached {
		t.Fatal("repeated identification missed the cache")
	}
	// The cached response replays the original probe's timings; compare
	// the rest of the payload with the breakdown (a pointer) normalized.
	if out.Timings == nil || out.Timings.GatherMs <= 0 {
		t.Fatalf("sync response missing stage timings: %+v", out.Timings)
	}
	if again.Timings == nil || *again.Timings != *out.Timings {
		t.Fatalf("cached timings differ: %+v vs %+v", again.Timings, out.Timings)
	}
	again.Cached = out.Cached
	again.Timings = out.Timings
	if fmt.Sprint(again) != fmt.Sprint(out) {
		t.Fatalf("cached result differs:\n%+v\n%+v", again, out)
	}

	// A different seed is a different key.
	_, data = postJSON(t, ts.URL+"/v1/identify", identifyBody("CUBIC2", 8))
	var third IdentifyResponse
	if err := json.Unmarshal(data, &third); err != nil {
		t.Fatal(err)
	}
	if third.Cached {
		t.Fatal("different seed hit the cache")
	}
}

func TestIdentifyRejectsBadRequests(t *testing.T) {
	_, ts := newTestService(t, Config{}, &fakeClassifier{Label: "RENO", Confidence: 1})
	cases := []struct {
		name string
		body any
		want int
	}{
		{"unknown algorithm", map[string]any{"server": map[string]any{"algorithm": "QUIC"}}, http.StatusBadRequest},
		{"missing algorithm", map[string]any{"server": map[string]any{}}, http.StatusBadRequest},
		{"loss out of range", map[string]any{
			"server":    map[string]any{"algorithm": "RENO"},
			"condition": map[string]any{"loss_rate": 1.5},
		}, http.StatusBadRequest},
		{"negative rtt", map[string]any{
			"server":    map[string]any{"algorithm": "RENO"},
			"condition": map[string]any{"mean_rtt_ms": -1},
		}, http.StatusBadRequest},
		{"unknown model", map[string]any{
			"model":  "nope",
			"server": map[string]any{"algorithm": "RENO"},
		}, http.StatusNotFound},
		{"unknown field", map[string]any{
			"server": map[string]any{"algorithm": "RENO"},
			"sever":  map[string]any{},
		}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, data := postJSON(t, ts.URL+"/v1/identify", tc.body)
			if resp.StatusCode != tc.want {
				t.Fatalf("status %d, want %d (%s)", resp.StatusCode, tc.want, data)
			}
			var e errorResponse
			if err := json.Unmarshal(data, &e); err != nil || e.Error == "" {
				t.Fatalf("error envelope missing: %s", data)
			}
		})
	}
}

// pollJob polls GET /v1/jobs/{id} until the job leaves the queued/running
// states or the deadline passes.
func pollJob(t *testing.T, base, id string, timeout time.Duration) JobStatus {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		var st JobStatus
		resp := getJSON(t, base+"/v1/jobs/"+id, &st)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("job status %d", resp.StatusCode)
		}
		if st.State != StateQueued && st.State != StateRunning {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s after %v", id, st.State, timeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestBatchLifecycle(t *testing.T) {
	_, ts := newTestService(t, Config{Workers: 2}, &fakeClassifier{Label: "BIC", Confidence: 0.8})

	jobs := []map[string]any{
		{"server": map[string]any{"algorithm": "BIC"}, "seed": 1},
		{"server": map[string]any{"algorithm": "BIC"}, "seed": 2},
		{"server": map[string]any{"algorithm": "HSTCP"}, "condition": map[string]any{"loss_rate": 0.01}, "seed": 3},
	}
	resp, data := postJSON(t, ts.URL+"/v1/batch", map[string]any{"jobs": jobs})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("batch status %d: %s", resp.StatusCode, data)
	}
	var acc BatchAccepted
	if err := json.Unmarshal(data, &acc); err != nil {
		t.Fatal(err)
	}
	if acc.JobID == "" || acc.Total != 3 || acc.Status != "/v1/jobs/"+acc.JobID {
		t.Fatalf("accepted = %+v", acc)
	}

	st := pollJob(t, ts.URL, acc.JobID, 30*time.Second)
	if st.State != StateDone {
		t.Fatalf("job finished %s (%s)", st.State, st.Error)
	}
	if st.Completed != 3 || len(st.Results) != 3 {
		t.Fatalf("job done with %d/%d results", st.Completed, len(st.Results))
	}
	for i, r := range st.Results {
		if !r.Valid || r.Label != "BIC" {
			t.Fatalf("result %d = %+v", i, r)
		}
		if r.Cached {
			t.Fatalf("result %d cached on a cold cache", i)
		}
	}

	// Resubmitting the identical batch must be answered fully from cache.
	resp, data = postJSON(t, ts.URL+"/v1/batch", map[string]any{"jobs": jobs})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("resubmit status %d: %s", resp.StatusCode, data)
	}
	if err := json.Unmarshal(data, &acc); err != nil {
		t.Fatal(err)
	}
	st = pollJob(t, ts.URL, acc.JobID, 30*time.Second)
	if st.State != StateDone || st.CacheHits != 3 {
		t.Fatalf("resubmit: state %s, %d cache hits (want 3)", st.State, st.CacheHits)
	}
	for i, r := range st.Results {
		if !r.Cached {
			t.Fatalf("resubmitted result %d not cached", i)
		}
	}
}

func TestBatchValidationAndUnknownJob(t *testing.T) {
	_, ts := newTestService(t, Config{MaxBatchJobs: 2}, &fakeClassifier{Label: "RENO", Confidence: 1})

	resp, _ := postJSON(t, ts.URL+"/v1/batch", map[string]any{"jobs": []any{}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty batch: status %d", resp.StatusCode)
	}

	three := []map[string]any{
		{"server": map[string]any{"algorithm": "RENO"}},
		{"server": map[string]any{"algorithm": "RENO"}, "seed": 2},
		{"server": map[string]any{"algorithm": "RENO"}, "seed": 3},
	}
	resp, data := postJSON(t, ts.URL+"/v1/batch", map[string]any{"jobs": three})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized batch: status %d (%s)", resp.StatusCode, data)
	}

	resp, data = postJSON(t, ts.URL+"/v1/batch", map[string]any{
		"jobs": []map[string]any{{"server": map[string]any{"algorithm": "NOPE"}}},
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad job spec: status %d (%s)", resp.StatusCode, data)
	}

	if resp := getJSON(t, ts.URL+"/v1/jobs/job-999", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: status %d", resp.StatusCode)
	}
}

func TestBatchQueueFullRejectsWith429(t *testing.T) {
	gate := make(chan struct{})
	model := &fakeClassifier{Label: "RENO", Confidence: 1, gate: gate}
	s, ts := newTestService(t, Config{Workers: 1, QueueSize: 1, Parallelism: 1}, model)
	defer close(gate)

	one := map[string]any{"jobs": []map[string]any{{"server": map[string]any{"algorithm": "RENO"}}}}

	// First job: picked up by the single worker and held at the gate.
	resp, data := postJSON(t, ts.URL+"/v1/batch", one)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: %d (%s)", resp.StatusCode, data)
	}
	var first BatchAccepted
	if err := json.Unmarshal(data, &first); err != nil {
		t.Fatal(err)
	}
	waitForState(t, s, first.JobID, StateRunning, 10*time.Second)

	// Second job sits in the queue; the third must bounce.
	resp, _ = postJSON(t, ts.URL+"/v1/batch", map[string]any{
		"jobs": []map[string]any{{"server": map[string]any{"algorithm": "RENO"}, "seed": 2}},
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second submit: %d", resp.StatusCode)
	}
	resp, data = postJSON(t, ts.URL+"/v1/batch", map[string]any{
		"jobs": []map[string]any{{"server": map[string]any{"algorithm": "RENO"}, "seed": 3}},
	})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit: %d (%s)", resp.StatusCode, data)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without a Retry-After header")
	}
}

// waitForState polls the in-process job store until the job reaches want.
func waitForState(t *testing.T, s *Service, id, want string, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		j, ok := s.lookupJob(id)
		if !ok {
			t.Fatalf("job %s vanished", id)
		}
		if j.status().State == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never reached %s (now %s)", id, want, j.status().State)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestJobCancellation(t *testing.T) {
	gate := make(chan struct{})
	model := &fakeClassifier{Label: "RENO", Confidence: 1, gate: gate}
	s, ts := newTestService(t, Config{Workers: 1, Parallelism: 1}, model)
	// Registered after newTestService so it runs before s.Close -- a gate
	// left shut would deadlock the executor shutdown on a failed test.
	releaseGate := sync.OnceFunc(func() { close(gate) })
	t.Cleanup(releaseGate)

	jobs := make([]map[string]any, 8)
	for i := range jobs {
		jobs[i] = map[string]any{"server": map[string]any{"algorithm": "RENO"}, "seed": i + 1}
	}
	resp, data := postJSON(t, ts.URL+"/v1/batch", map[string]any{"jobs": jobs})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d (%s)", resp.StatusCode, data)
	}
	var acc BatchAccepted
	if err := json.Unmarshal(data, &acc); err != nil {
		t.Fatal(err)
	}
	waitForState(t, s, acc.JobID, StateRunning, 10*time.Second)

	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+acc.JobID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp, err := http.DefaultClient.Do(req); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: %v %v", err, resp.Status)
	}
	releaseGate() // release the blocked probe so the executor can wind down

	st := pollJob(t, ts.URL, acc.JobID, 30*time.Second)
	if st.State != StateCancelled {
		t.Fatalf("state after cancel = %s (%s)", st.State, st.Error)
	}
	if st.Completed >= len(jobs) {
		t.Fatalf("cancelled job completed all %d probes", st.Completed)
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	_, ts := newTestService(t, Config{}, &fakeClassifier{Label: "VEGAS", Confidence: 0.7})

	var health struct {
		Status string   `json:"status"`
		Models []string `json:"models"`
	}
	if resp := getJSON(t, ts.URL+"/healthz", &health); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	if health.Status != "ok" || len(health.Models) != 1 {
		t.Fatalf("healthz = %+v", health)
	}

	// Two misses + one hit.
	postJSON(t, ts.URL+"/v1/identify", identifyBody("VEGAS", 1))
	postJSON(t, ts.URL+"/v1/identify", identifyBody("VEGAS", 2))
	postJSON(t, ts.URL+"/v1/identify", identifyBody("VEGAS", 1))

	var m MetricsSnapshot
	if resp := getJSON(t, ts.URL+"/metrics", &m); resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	if m.Cache.Hits != 1 || m.Cache.Misses != 2 {
		t.Fatalf("cache hits/misses = %d/%d, want 1/2", m.Cache.Hits, m.Cache.Misses)
	}
	if m.Cache.HitRate < 0.32 || m.Cache.HitRate > 0.34 {
		t.Fatalf("hit rate = %v, want ~1/3", m.Cache.HitRate)
	}
	if m.Identifies != 2 {
		t.Fatalf("identifications_total = %d, want 2", m.Identifies)
	}
	if m.Requests < 5 {
		t.Fatalf("requests_total = %d, want >= 5", m.Requests)
	}
	if m.Labels["VEGAS"] != 2 {
		t.Fatalf("labels = %v, want VEGAS:2", m.Labels)
	}
	if len(m.Models) != 1 || m.Models[0].Version != "default@1" || !m.Models[0].Default {
		t.Fatalf("models = %+v", m.Models)
	}
	if m.InFlight != 0 {
		t.Fatalf("in_flight = %d at rest", m.InFlight)
	}
}

func TestModelsEndpointAndHotReload(t *testing.T) {
	dir := t.TempDir()
	path := saveFakeModel(t, dir, "m.json", "FIRST", 0.9)
	reg := NewRegistry()
	if _, err := reg.Load("default", path); err != nil {
		t.Fatal(err)
	}
	s := New(reg, Config{})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })

	body := identifyBody("RENO", 5)
	_, data := postJSON(t, ts.URL+"/v1/identify", body)
	var out IdentifyResponse
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out.Label != "FIRST" || out.Model != "default@1" {
		t.Fatalf("pre-reload identify = %+v", out)
	}

	// Retrain offline (here: rewrite the file), then hot-swap.
	saveFakeModel(t, dir, "m.json", "SECOND", 0.8)
	resp, data := postJSON(t, ts.URL+"/v1/models/reload", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reload status %d: %s", resp.StatusCode, data)
	}
	var rel struct {
		Reloaded []ModelInfo `json:"reloaded"`
	}
	if err := json.Unmarshal(data, &rel); err != nil {
		t.Fatal(err)
	}
	if len(rel.Reloaded) != 1 || rel.Reloaded[0].Version != "default@2" {
		t.Fatalf("reloaded = %+v", rel.Reloaded)
	}

	// Same request: new model version means a cache miss and new weights.
	_, data = postJSON(t, ts.URL+"/v1/identify", body)
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out.Cached {
		t.Fatal("identify after reload served the old model's cache entry")
	}
	if out.Label != "SECOND" || out.Model != "default@2" {
		t.Fatalf("post-reload identify = %+v", out)
	}

	var models struct {
		Models []ModelInfo `json:"models"`
	}
	if resp := getJSON(t, ts.URL+"/v1/models", &models); resp.StatusCode != http.StatusOK {
		t.Fatalf("models status %d", resp.StatusCode)
	}
	if len(models.Models) != 1 || models.Models[0].Generation != 2 {
		t.Fatalf("models = %+v", models.Models)
	}
}

func TestServiceCloseFailsQueuedJobs(t *testing.T) {
	gate := make(chan struct{})
	model := &fakeClassifier{Label: "RENO", Confidence: 1, gate: gate}
	registerFakeCodec()
	reg := NewRegistry()
	reg.Add("default", model)
	s := New(reg, Config{Workers: 1, QueueSize: 4, Parallelism: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	one := func(seed int) map[string]any {
		return map[string]any{"jobs": []map[string]any{
			{"server": map[string]any{"algorithm": "RENO"}, "seed": seed},
		}}
	}
	resp, data := postJSON(t, ts.URL+"/v1/batch", one(1))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	var running BatchAccepted
	if err := json.Unmarshal(data, &running); err != nil {
		t.Fatal(err)
	}
	waitForState(t, s, running.JobID, StateRunning, 10*time.Second)
	resp, data = postJSON(t, ts.URL+"/v1/batch", one(2))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit queued: %d", resp.StatusCode)
	}
	var queued BatchAccepted
	if err := json.Unmarshal(data, &queued); err != nil {
		t.Fatal(err)
	}

	close(gate)
	s.Close()

	if st, _ := s.lookupJob(queued.JobID); st.status().State == StateQueued {
		t.Fatalf("queued job still queued after Close: %+v", st.status())
	}
}

func TestIdentifyAlgorithmNamedNoModelIs400(t *testing.T) {
	// The 404 mapping must key on the sentinel error, not on substrings a
	// client can plant in the algorithm name.
	_, ts := newTestService(t, Config{}, &fakeClassifier{Label: "RENO", Confidence: 1})
	resp, data := postJSON(t, ts.URL+"/v1/identify", map[string]any{
		"server": map[string]any{"algorithm": "no model"},
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400 (%s)", resp.StatusCode, data)
	}
}

func TestFinishedJobRetentionEviction(t *testing.T) {
	_, ts := newTestService(t, Config{Workers: 1, JobRetention: 2}, &fakeClassifier{Label: "RENO", Confidence: 1})

	var ids []string
	for seed := 1; seed <= 3; seed++ {
		resp, data := postJSON(t, ts.URL+"/v1/batch", map[string]any{
			"jobs": []map[string]any{{"server": map[string]any{"algorithm": "RENO"}, "seed": seed}},
		})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: %d (%s)", seed, resp.StatusCode, data)
		}
		var acc BatchAccepted
		if err := json.Unmarshal(data, &acc); err != nil {
			t.Fatal(err)
		}
		if st := pollJob(t, ts.URL, acc.JobID, 30*time.Second); st.State != StateDone {
			t.Fatalf("job %s finished %s", acc.JobID, st.State)
		}
		ids = append(ids, acc.JobID)
	}

	// Two retained, the oldest evicted.
	if resp := getJSON(t, ts.URL+"/v1/jobs/"+ids[0], nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("oldest job = %d, want 404 after eviction", resp.StatusCode)
	}
	for _, id := range ids[1:] {
		if resp := getJSON(t, ts.URL+"/v1/jobs/"+id, nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("retained job %s = %d", id, resp.StatusCode)
		}
	}
}

func TestCancelQueuedJobReportsImmediately(t *testing.T) {
	gate := make(chan struct{})
	model := &fakeClassifier{Label: "RENO", Confidence: 1, gate: gate}
	s, ts := newTestService(t, Config{Workers: 1, QueueSize: 2, Parallelism: 1}, model)
	releaseGate := sync.OnceFunc(func() { close(gate) })
	t.Cleanup(releaseGate)

	one := func(seed int) map[string]any {
		return map[string]any{"jobs": []map[string]any{
			{"server": map[string]any{"algorithm": "RENO"}, "seed": seed},
		}}
	}
	// Occupy the single worker, then queue a second job.
	resp, data := postJSON(t, ts.URL+"/v1/batch", one(1))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit running: %d", resp.StatusCode)
	}
	var running BatchAccepted
	if err := json.Unmarshal(data, &running); err != nil {
		t.Fatal(err)
	}
	waitForState(t, s, running.JobID, StateRunning, 10*time.Second)
	resp, data = postJSON(t, ts.URL+"/v1/batch", one(2))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit queued: %d", resp.StatusCode)
	}
	var queued BatchAccepted
	if err := json.Unmarshal(data, &queued); err != nil {
		t.Fatal(err)
	}

	// DELETE of the still-queued job must reflect the cancel immediately,
	// not only after the busy worker drains to it.
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+queued.JobID, nil)
	if err != nil {
		t.Fatal(err)
	}
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var st JobStatus
	if err := json.NewDecoder(dresp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if st.State != StateCancelled {
		t.Fatalf("DELETE response state = %s, want cancelled", st.State)
	}
	if got := getJSON(t, ts.URL+"/v1/jobs/"+queued.JobID, &st); got.StatusCode != http.StatusOK || st.State != StateCancelled {
		t.Fatalf("poll after cancel = %d / %s", got.StatusCode, st.State)
	}
	releaseGate()
}

func TestReloadRejectsClientSuppliedPath(t *testing.T) {
	dir := t.TempDir()
	path := saveFakeModel(t, dir, "m.json", "A", 0.9)
	reg := NewRegistry()
	if _, err := reg.Load("default", path); err != nil {
		t.Fatal(err)
	}
	s := New(reg, Config{})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })

	// A path field must be rejected outright (unknown field), never read.
	resp, data := postJSON(t, ts.URL+"/v1/models/reload", map[string]any{"name": "x", "path": "/etc/passwd"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("reload with path = %d (%s)", resp.StatusCode, data)
	}
	// Reloading an unknown name is 404.
	resp, data = postJSON(t, ts.URL+"/v1/models/reload", map[string]any{"name": "ghost"})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("reload unknown name = %d (%s)", resp.StatusCode, data)
	}
	// Reloading a known name by name works.
	resp, data = postJSON(t, ts.URL+"/v1/models/reload", map[string]any{"name": "default"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reload by name = %d (%s)", resp.StatusCode, data)
	}
}

func TestIdentifyCoalescesConcurrentIdenticalRequests(t *testing.T) {
	gate := make(chan struct{})
	started := make(chan struct{}, 8)
	model := &fakeClassifier{Label: "BIC", Confidence: 1, gate: gate, started: started}
	s, ts := newTestService(t, Config{}, model)
	releaseGate := sync.OnceFunc(func() { close(gate) })
	t.Cleanup(releaseGate)

	body := identifyBody("BIC", 4)
	results := make(chan IdentifyResponse, 2)
	post := func() {
		resp, data := postJSON(t, ts.URL+"/v1/identify", body)
		if resp.StatusCode != http.StatusOK {
			t.Errorf("status %d: %s", resp.StatusCode, data)
			results <- IdentifyResponse{}
			return
		}
		var out IdentifyResponse
		if err := json.Unmarshal(data, &out); err != nil {
			t.Error(err)
		}
		results <- out
	}
	go post()
	<-started // leader is provably mid-probe
	go post()
	// Give the follower a moment to reach the singleflight wait, then let
	// the probe finish. Whether it coalesces or lands as a plain cache hit
	// afterwards, exactly one probe may run.
	time.Sleep(20 * time.Millisecond)
	releaseGate()

	a, b := <-results, <-results
	if a.Label != "BIC" || b.Label != "BIC" {
		t.Fatalf("responses: %+v / %+v", a, b)
	}
	if s.metrics.identifies.Load() != 1 {
		t.Fatalf("identifications executed = %d, want 1 (coalesced)", s.metrics.identifies.Load())
	}
	if s.metrics.cacheMisses.Load() != 1 || s.metrics.cacheHits.Load() != 1 {
		t.Fatalf("cache hits/misses = %d/%d, want 1/1",
			s.metrics.cacheHits.Load(), s.metrics.cacheMisses.Load())
	}
}

func TestSubmitAfterCloseRejected(t *testing.T) {
	registerFakeCodec()
	reg := NewRegistry()
	reg.Add("default", &fakeClassifier{Label: "RENO", Confidence: 1})
	s := New(reg, Config{})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	s.Close()

	resp, data := postJSON(t, ts.URL+"/v1/batch", map[string]any{
		"jobs": []map[string]any{{"server": map[string]any{"algorithm": "RENO"}}},
	})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit after Close = %d (%s), want 503", resp.StatusCode, data)
	}
}

func TestBatchDeduplicatesIdenticalSpecs(t *testing.T) {
	s, ts := newTestService(t, Config{Workers: 1}, &fakeClassifier{Label: "STCP", Confidence: 1})

	dup := map[string]any{"server": map[string]any{"algorithm": "STCP"}, "seed": 9}
	resp, data := postJSON(t, ts.URL+"/v1/batch", map[string]any{
		"jobs": []map[string]any{dup, {"server": map[string]any{"algorithm": "STCP"}, "seed": 10}, dup},
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d (%s)", resp.StatusCode, data)
	}
	var acc BatchAccepted
	if err := json.Unmarshal(data, &acc); err != nil {
		t.Fatal(err)
	}
	st := pollJob(t, ts.URL, acc.JobID, 30*time.Second)
	if st.State != StateDone || len(st.Results) != 3 {
		t.Fatalf("final = %+v", st)
	}
	for i, r := range st.Results {
		if !r.Valid || r.Label != "STCP" {
			t.Fatalf("result %d = %+v", i, r)
		}
	}
	// Two unique specs -> exactly two probes; the duplicate is fanned out.
	if got := s.metrics.identifies.Load(); got != 2 {
		t.Fatalf("identifications executed = %d, want 2", got)
	}
	if !st.Results[2].Cached || st.Results[0].Cached {
		t.Fatalf("dedup flags: first %v, duplicate %v", st.Results[0].Cached, st.Results[2].Cached)
	}
	if st.CacheHits != 1 {
		t.Fatalf("job cache hits = %d, want 1 (the intra-batch duplicate)", st.CacheHits)
	}
	if s.metrics.cacheHits.Load() != 1 || s.metrics.cacheMisses.Load() != 2 {
		t.Fatalf("cache hits/misses = %d/%d, want 1/2",
			s.metrics.cacheHits.Load(), s.metrics.cacheMisses.Load())
	}
}

// TestBatchJoinsInFlightIdentifyProbe: a batch holding the spec that a
// /v1/identify is probing right now waits for that probe instead of
// repeating it, and gets its answer back as a cache hit.
func TestBatchJoinsInFlightIdentifyProbe(t *testing.T) {
	gate := make(chan struct{})
	started := make(chan struct{}, 8)
	model := &fakeClassifier{Label: "BIC", Confidence: 1, gate: gate, started: started}
	s, ts := newTestService(t, Config{Workers: 1}, model)
	releaseGate := sync.OnceFunc(func() { close(gate) })
	t.Cleanup(releaseGate)

	body := identifyBody("BIC", 4)
	done := make(chan IdentifyResponse, 1)
	go func() {
		resp, data := postJSON(t, ts.URL+"/v1/identify", body)
		var out IdentifyResponse
		if resp.StatusCode != http.StatusOK {
			t.Errorf("identify status %d: %s", resp.StatusCode, data)
		} else if err := json.Unmarshal(data, &out); err != nil {
			t.Error(err)
		}
		done <- out
	}()
	<-started // the identify is provably mid-probe

	resp, data := postJSON(t, ts.URL+"/v1/batch", map[string]any{"jobs": []map[string]any{body}})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d (%s)", resp.StatusCode, data)
	}
	var acc BatchAccepted
	if err := json.Unmarshal(data, &acc); err != nil {
		t.Fatal(err)
	}
	waitForState(t, s, acc.JobID, StateRunning, 10*time.Second)
	// Give the batch a moment to reach the in-flight probe, then let that
	// probe finish. Whether the batch waits on it or lands as a plain cache
	// hit afterwards, it must not probe again.
	time.Sleep(20 * time.Millisecond)
	releaseGate()

	if out := <-done; out.Label != "BIC" || out.Cached {
		t.Fatalf("identify = %+v, want a fresh BIC probe", out)
	}
	st := pollJob(t, ts.URL, acc.JobID, 30*time.Second)
	if st.State != StateDone || len(st.Results) != 1 {
		t.Fatalf("final = %+v", st)
	}
	if r := st.Results[0]; r.Label != "BIC" || !r.Cached {
		t.Fatalf("batch result = %+v, want the identify's answer, cached", r)
	}
	if got := s.metrics.identifies.Load(); got != 1 {
		t.Fatalf("identifications executed = %d, want 1 (the batch joined the identify's probe)", got)
	}
	if st.CacheHits != 1 || s.metrics.cacheHits.Load() != 1 || s.metrics.cacheMisses.Load() != 1 {
		t.Fatalf("job cache hits %d, service hits/misses %d/%d, want 1, 1/1",
			st.CacheHits, s.metrics.cacheHits.Load(), s.metrics.cacheMisses.Load())
	}
}

func TestOversizedBodyRejectedWith413(t *testing.T) {
	_, ts := newTestService(t, Config{}, &fakeClassifier{Label: "RENO", Confidence: 1})
	// A syntactically valid body whose one string token exceeds the cap,
	// so the decoder is still reading when the limit trips.
	big := append([]byte(`{"model":"`), bytes.Repeat([]byte("x"), maxBodyBytes+1024)...)
	big = append(big, '"', '}')
	resp, err := http.Post(ts.URL+"/v1/batch", "application/json", bytes.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body = %d, want 413", resp.StatusCode)
	}
}

func TestReloadReportsPartialFailure(t *testing.T) {
	dir := t.TempDir()
	good := saveFakeModel(t, dir, "good.json", "G", 0.9)
	bad := saveFakeModel(t, dir, "bad.json", "B", 0.9)
	reg := NewRegistry()
	if _, err := reg.Load("good", good); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Load("bad", bad); err != nil {
		t.Fatal(err)
	}
	s := New(reg, Config{})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })

	if err := os.WriteFile(bad, []byte("corrupt"), 0o644); err != nil {
		t.Fatal(err)
	}
	resp, data := postJSON(t, ts.URL+"/v1/models/reload", nil)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("partial reload = %d (%s), want 500", resp.StatusCode, data)
	}
	var rel struct {
		Reloaded []ModelInfo `json:"reloaded"`
		Errors   []string    `json:"errors"`
	}
	if err := json.Unmarshal(data, &rel); err != nil {
		t.Fatal(err)
	}
	// The good model's swap must be reported, not hidden by bad's error.
	if len(rel.Reloaded) != 1 || rel.Reloaded[0].Name != "good" || rel.Reloaded[0].Generation != 2 {
		t.Fatalf("reloaded = %+v", rel.Reloaded)
	}
	if len(rel.Errors) == 0 {
		t.Fatalf("errors missing from partial-failure response: %s", data)
	}
	if s.metrics.modelsReloaded.Load() != 1 {
		t.Fatalf("models_reloaded = %d, want 1", s.metrics.modelsReloaded.Load())
	}
	// The corrupt model keeps serving its old weights.
	m, err := reg.Get("bad")
	if err != nil || m.Generation != 1 {
		t.Fatalf("bad model after failed reload: %+v, %v", m, err)
	}
}

func TestIdentifyHonorsCallerContext(t *testing.T) {
	gate := make(chan struct{})
	model := &fakeClassifier{Label: "RENO", Confidence: 1, gate: gate, started: make(chan struct{}, 4)}
	s, _ := newTestService(t, Config{Parallelism: 1}, model)
	releaseGate := sync.OnceFunc(func() { close(gate) })
	t.Cleanup(releaseGate)

	// Occupy the single probe slot.
	go s.identify(context.Background(), "", JobSpec{Server: ServerSpec{Algorithm: "RENO"}, Seed: 1})
	<-model.started

	// A second, different spec cannot get the slot; its context expiring
	// must release it with an error instead of waiting forever.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	_, err := s.identify(ctx, "", JobSpec{Server: ServerSpec{Algorithm: "RENO"}, Seed: 2})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("identify err = %v, want DeadlineExceeded", err)
	}
	// An aborted leader must not poison the key: once capacity frees up,
	// the same spec identifies normally.
	releaseGate()
	resp, err := s.identify(context.Background(), "", JobSpec{Server: ServerSpec{Algorithm: "RENO"}, Seed: 2})
	if err != nil || resp.Label != "RENO" {
		t.Fatalf("retry after aborted leader = %+v, %v", resp, err)
	}
}
