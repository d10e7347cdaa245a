package service

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/census"
	"repro/internal/netem"
)

// censusBody is the canonical happy-path census request the tests vary.
func censusBody(servers int, seed int64) map[string]any {
	return map[string]any{"servers": servers, "seed": seed, "workers": 3}
}

// waitForCensusDone polls the job endpoint until the census reaches a
// terminal state, returning the final status.
func waitForCensusDone(t *testing.T, ts *httptestURL, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		var st JobStatus
		getJSON(t, ts.base+"/v1/jobs/"+id, &st)
		switch st.State {
		case StateDone:
			return st
		case StateFailed, StateCancelled:
			t.Fatalf("census job ended %s: %s", st.State, st.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("census job stuck in %s (%d/%d)", st.State, st.Completed, st.Total)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// httptestURL lets the poll helper take just the base URL.
type httptestURL struct{ base string }

func TestCensusEndToEndMatchesDirectRun(t *testing.T) {
	s, ts := newTestService(t, Config{}, &fakeClassifier{Label: "RENO", Confidence: 0.9})

	resp, data := postJSON(t, ts.URL+"/v1/census", censusBody(60, 5))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d (%s)", resp.StatusCode, data)
	}
	var acc BatchAccepted
	if err := json.Unmarshal(data, &acc); err != nil {
		t.Fatal(err)
	}
	if acc.Total != 60 {
		t.Fatalf("accepted total = %d, want 60", acc.Total)
	}
	st := waitForCensusDone(t, &httptestURL{ts.URL}, acc.JobID)
	if st.Census == nil {
		t.Fatal("done census job has no census status")
	}
	if st.Census.Progress.Completed != 60 || st.Completed != 60 {
		t.Fatalf("completed = %d/%d, want 60", st.Census.Progress.Completed, st.Completed)
	}
	if st.Census.TableIV == "" {
		t.Fatal("done census job has no Table IV")
	}

	// The job must reproduce a direct census.Run with the same seed
	// derivation bit for bit: the sharded coordinator, retries and all, is
	// outcome-equivalent to the sequential runner when no faults fire.
	model, err := s.registry.Get("default")
	if err != nil {
		t.Fatal(err)
	}
	popCfg := census.DefaultPopulationConfig()
	popCfg.Servers = 60
	popCfg.Seed = 5 + 77
	pop := census.GeneratePopulation(popCfg)
	direct := census.Run(pop, model.Identifier(), netem.MeasuredDatabase(), census.RunConfig{Seed: 5 + 99})
	if got, want := st.Census.TableIV, direct.TableIV(); got != want {
		t.Fatalf("service census table diverged from census.Run:\n--- service\n%s\n--- direct\n%s", got, want)
	}

	// The campaign's counters reached the process-wide snapshot.
	var snap MetricsSnapshot
	getJSON(t, ts.URL+"/metrics", &snap)
	if snap.Census.Jobs != 1 {
		t.Fatalf("census jobs = %d, want 1", snap.Census.Jobs)
	}
	if snap.Census.Probes != 60 {
		t.Fatalf("census probes = %d, want 60", snap.Census.Probes)
	}
	if snap.Census.Attempts.Count != 60 {
		t.Fatalf("attempt histogram count = %d, want 60", snap.Census.Attempts.Count)
	}
}

func TestCensusChaosAbandonmentAndTelemetry(t *testing.T) {
	_, ts := newTestService(t, Config{}, &fakeClassifier{Label: "RENO", Confidence: 0.9})

	body := censusBody(80, 11)
	body["max_attempts"] = 2
	body["max_deferrals"] = 2
	body["fault"] = map[string]any{
		"seed":             9,
		"probe_error_rate": 0.25,
		"rate_limit_rate":  0.15,
		"unreachable_rate": 0.1,
	}
	resp, data := postJSON(t, ts.URL+"/v1/census", body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d (%s)", resp.StatusCode, data)
	}
	var acc BatchAccepted
	if err := json.Unmarshal(data, &acc); err != nil {
		t.Fatal(err)
	}
	st := waitForCensusDone(t, &httptestURL{ts.URL}, acc.JobID)
	p := st.Census.Progress
	if p.Completed != 80 {
		t.Fatalf("completed = %d, want 80", p.Completed)
	}
	if p.TargetsAbandoned == 0 || p.Retries == 0 || p.Deferrals == 0 {
		t.Fatalf("chaos run shows no fault handling: %+v", p)
	}
	if p.BackoffSeconds <= 0 {
		t.Fatalf("chaos run accumulated no backoff: %+v", p)
	}
	// Abandoned targets land in the report's invalid accounting with
	// their abandonment reason, visible in the rendered table.
	if !strings.Contains(st.Census.TableIV, "abandoned:") {
		t.Fatalf("Table IV lacks abandonment reasons:\n%s", st.Census.TableIV)
	}

	var snap MetricsSnapshot
	getJSON(t, ts.URL+"/metrics", &snap)
	if snap.Census.TargetsAbandoned == 0 || snap.Census.Retries == 0 {
		t.Fatalf("census metrics missed the chaos campaign: %+v", snap.Census)
	}
	if snap.Census.BackoffSeconds <= 0 {
		t.Fatalf("census backoff seconds = %v, want > 0", snap.Census.BackoffSeconds)
	}
}

func TestCensusPrometheusExposition(t *testing.T) {
	_, ts := newTestService(t, Config{}, &fakeClassifier{Label: "RENO", Confidence: 0.9})

	resp, data := postJSON(t, ts.URL+"/v1/census", censusBody(30, 3))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d (%s)", resp.StatusCode, data)
	}
	var acc BatchAccepted
	if err := json.Unmarshal(data, &acc); err != nil {
		t.Fatal(err)
	}
	waitForCensusDone(t, &httptestURL{ts.URL}, acc.JobID)

	r, err := http.Get(ts.URL + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	var b strings.Builder
	if _, err := io.Copy(&b, r.Body); err != nil {
		t.Fatal(err)
	}
	prom := b.String()
	// A fault-free 30-target campaign: exact golden samples.
	for _, want := range []string{
		"caai_census_jobs_total 1",
		"caai_census_probes_total 30",
		"caai_census_retries_total 0",
		"caai_census_targets_abandoned_total 0",
		"caai_census_worker_crashes_total 0",
		"# TYPE caai_census_attempts histogram",
		`caai_census_attempts_bucket{le="0"} 0`,
		`caai_census_attempts_bucket{le="1"} 30`,
		`caai_census_attempts_bucket{le="+Inf"} 30`,
		"caai_census_attempts_sum 30",
		"caai_census_attempts_count 30",
	} {
		if !strings.Contains(prom, want) {
			t.Errorf("census exposition missing %q", want)
		}
	}
}

func TestCensusValidation(t *testing.T) {
	_, ts := newTestService(t, Config{}, &fakeClassifier{Label: "RENO", Confidence: 0.9})

	cases := []struct {
		name string
		body map[string]any
		want int
	}{
		{"zero servers", map[string]any{"servers": 0}, http.StatusBadRequest},
		{"oversized", map[string]any{"servers": MaxCensusServers + 1}, http.StatusBadRequest},
		{"negative workers", map[string]any{"servers": 10, "workers": -1}, http.StatusBadRequest},
		{"too many workers", map[string]any{"servers": 10, "workers": MaxCensusWorkers + 1}, http.StatusBadRequest},
		{"unbounded retries", map[string]any{
			"servers":       1,
			"max_attempts":  1 << 40,
			"max_deferrals": 1 << 40,
			"fault":         map[string]any{"probe_error_rate": 1},
		}, http.StatusBadRequest},
		{"too many attempts", map[string]any{"servers": 10, "max_attempts": MaxCensusAttempts + 1}, http.StatusBadRequest},
		{"too many deferrals", map[string]any{"servers": 10, "max_deferrals": MaxCensusDeferrals + 1}, http.StatusBadRequest},
		{"attempts at the limit", map[string]any{"servers": 1, "max_attempts": MaxCensusAttempts}, http.StatusAccepted},
		{"unknown model", map[string]any{"servers": 10, "model": "nope"}, http.StatusNotFound},
		{"bad fault plan", map[string]any{
			"servers": 10,
			"fault":   map[string]any{"probe_error_rate": 2.0},
		}, http.StatusBadRequest},
		{"unknown field", map[string]any{"servers": 10, "bogus": true}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp, data := postJSON(t, ts.URL+"/v1/census", tc.body)
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, resp.StatusCode, tc.want, data)
		}
	}
}

func TestCensusQueueFullRejectsWith429(t *testing.T) {
	gate := make(chan struct{})
	model := &fakeClassifier{Label: "RENO", Confidence: 1, gate: gate}
	s, ts := newTestService(t, Config{Workers: 1, QueueSize: 1, Parallelism: 1}, model)
	defer close(gate)

	// Occupy the single worker with a gated batch job, then fill the
	// one-slot queue.
	one := map[string]any{"jobs": []map[string]any{{"server": map[string]any{"algorithm": "RENO"}}}}
	resp, data := postJSON(t, ts.URL+"/v1/batch", one)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: %d (%s)", resp.StatusCode, data)
	}
	var first BatchAccepted
	if err := json.Unmarshal(data, &first); err != nil {
		t.Fatal(err)
	}
	waitForState(t, s, first.JobID, StateRunning, 10*time.Second)
	if resp, _ = postJSON(t, ts.URL+"/v1/batch", map[string]any{
		"jobs": []map[string]any{{"server": map[string]any{"algorithm": "RENO"}, "seed": 2}},
	}); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second submit: %d", resp.StatusCode)
	}

	resp, data = postJSON(t, ts.URL+"/v1/census", censusBody(10, 1))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("census overflow: %d (%s)", resp.StatusCode, data)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without a Retry-After header")
	}
}

func TestIdentifyBacklogShedsWith429(t *testing.T) {
	gate := make(chan struct{})
	started := make(chan struct{}, 8)
	model := &fakeClassifier{Label: "RENO", Confidence: 1, gate: gate, started: started}
	s, ts := newTestService(t, Config{Parallelism: 1, QueueSize: 2}, model)
	releaseGate := sync.OnceFunc(func() { close(gate) })
	t.Cleanup(releaseGate)

	// Leader: holds the single probe slot, provably inside Classify.
	codes := make(chan int, 8)
	post := func(seed int64) {
		resp, _ := postJSON(t, ts.URL+"/v1/identify", identifyBody("RENO", seed))
		codes <- resp.StatusCode
	}
	go post(1)
	<-started

	// Two more distinct requests park on the semaphore, filling the
	// QueueSize=2 sync backlog.
	go post(2)
	go post(3)
	deadline := time.Now().Add(10 * time.Second)
	for s.syncWaiting.Load() != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("sync backlog never filled (waiting=%d)", s.syncWaiting.Load())
		}
		time.Sleep(time.Millisecond)
	}

	// The next distinct request must be shed, not parked.
	resp, data := postJSON(t, ts.URL+"/v1/identify", identifyBody("RENO", 4))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("backlog overflow: %d (%s)", resp.StatusCode, data)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without a Retry-After header")
	}

	// Release everything: the parked requests complete normally.
	releaseGate()
	for i := 0; i < 3; i++ {
		if code := <-codes; code != http.StatusOK {
			t.Fatalf("parked request %d finished %d", i, code)
		}
	}

	var snap MetricsSnapshot
	getJSON(t, ts.URL+"/metrics", &snap)
	if snap.SyncRejected != 1 {
		t.Fatalf("sync_rejected = %d, want 1", snap.SyncRejected)
	}
}
