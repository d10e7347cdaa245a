package service

import (
	"bytes"
	"encoding/json"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"
	"time"

	"repro/internal/eval"
	"repro/internal/telemetry"
)

// -update regenerates the /metrics goldens:
//
//	go test ./internal/service -run TestMetricsGolden -update
//
// The goldens pin both renderings of GET /metrics. Regenerate them only
// for a deliberate change to a metric's name, help text or shape, and say
// so in the commit.
var update = flag.Bool("update", false, "regenerate the /metrics goldens")

// goldenMetricsService returns a closed service whose every instrument
// holds a distinct non-zero value: counters, gauges, the queue, cache and
// registry readings, the census sink, the stage, endpoint and pcap-decode
// histograms, two labels (one containing a quote), the flight recorder's
// accounting and an eval summary. The one exception is the recorder's
// lost-trace counter, which only a full completion queue can move.
func goldenMetricsService(t *testing.T) *Service {
	t.Helper()
	registerFakeCodec()
	reg := NewRegistry()
	reg.Add("default", &fakeClassifier{Label: "RENO", Confidence: 1})
	reg.Add("shadow", &fakeClassifier{Label: "CUBIC2", Confidence: 1})
	s := New(reg, Config{Workers: 3, QueueSize: 16, CacheSize: 32, TraceSampleN: -1, TraceRetain: 2})

	// Flight recorder: 11 spans, 3 outcome traces retained (2 stored),
	// 4 normal traces dropped.
	for i := 0; i < 11; i++ {
		s.flight.Event(s.flight.Mint(), telemetry.EventCacheMiss, 0)
	}
	for i := 0; i < 3; i++ {
		s.flight.Finish(telemetry.TraceDone{ID: s.flight.Mint(), Outcome: telemetry.OutcomeError})
	}
	for i := 0; i < 4; i++ {
		s.flight.Finish(telemetry.TraceDone{ID: s.flight.Mint(), Outcome: telemetry.OutcomeOK})
	}
	// Stop the workers so the jobs queued below stay queued.
	s.Close()
	for i := 0; i < 5; i++ {
		s.queue <- &job{}
	}
	for i := 0; i < 6; i++ {
		s.cache.Put(string(rune('a'+i)), IdentifyResponse{})
	}

	m := s.metrics
	m.requests.Add(1001)
	m.identifies.Add(1002)
	m.cacheHits.Add(1003)
	m.cacheMisses.Add(1004)
	m.batchAccepted.Add(1005)
	m.batchRejected.Add(1006)
	m.jobsCompleted.Add(1007)
	m.jobsFailed.Add(1008)
	m.inFlight.Add(9)
	m.modelsReloaded.Add(1010)
	m.syncRejected.Add(1011)
	m.queueHighWater.Set(12)
	m.workersBusy.Set(2)
	m.finishedRetained.Set(14)

	m.censusJobs.Add(1015)
	m.census.Probes.Add(1016)
	m.census.Retries.Add(1017)
	m.census.Deferrals.Add(1018)
	m.census.TargetsAbandoned.Add(1021)
	m.census.BackoffNanos.Add(int64(1500 * time.Millisecond))
	m.census.CheckpointWrites.Add(1023)
	m.census.WorkerCrashes.Add(1024)
	for _, v := range []int64{1, 1, 1, 2, 3, 20} {
		m.census.Attempts.Observe(v)
	}

	m.pcapUploads.Add(1025)
	m.pcapFlowsSeen.Add(1026)
	m.pcapFlowsClassifiable.Add(1027)
	m.pcapDecodeErrors.Add(1028)
	m.pcapBytes.Add(1029)
	m.pcapDecode.Observe(3 * time.Millisecond)
	m.pcapDecode.Observe(250 * time.Millisecond)

	m.streamRequests.Add(1030)
	m.streamRejected.Add(1031)
	m.streamErrors.Add(1032)
	m.streamActive.Add(33)
	sm := &m.stream
	sm.Tracker.Live.Set(34)
	sm.Tracker.LiveHighWater.Set(35)
	sm.Tracker.Epochs.Add(1036)
	sm.Tracker.Expired.Add(1037)
	m.streamBytes.Add(1038)
	sm.Packets.Add(1039)
	sm.Flows.Add(1040)

	for _, r := range []struct {
		resp IdentifyResponse
		n    int
	}{
		{IdentifyResponse{Valid: true, Label: "CUBIC2"}, 3},
		{IdentifyResponse{Valid: true, Label: `RE"NO`}, 4},
		{IdentifyResponse{Valid: true, Label: "UNSURE"}, 2},
		{IdentifyResponse{Valid: true, Special: "slow-start"}, 1},
		{IdentifyResponse{}, 5},
	} {
		for i := 0; i < r.n; i++ {
			m.countLabel(r.resp)
		}
	}

	for st := 0; st < telemetry.NumStages; st++ {
		for i := 0; i <= st; i++ {
			m.pipeline.Observe(telemetry.Stage(st), time.Duration(st+1)*700*time.Microsecond)
		}
	}
	m.observeEndpoint("POST /v1/identify", 2*time.Millisecond)
	m.observeEndpoint("POST /v1/identify", 40*time.Millisecond)
	m.observeEndpoint("GET /metrics", 90*time.Microsecond)

	s.SetEvalSummary(eval.Summary{
		Label:            "golden",
		OverallAccuracy:  0.875,
		ScenarioAccuracy: map[string]float64{"clean": 0.99, "loss_5": 0.75},
		Cells:            42,
	})
	return s
}

// renderMetrics serves one GET /metrics straight from the handler (no
// middleware, so the scrape itself moves no counter).
func renderMetrics(t *testing.T, s *Service, query, wantType string) []byte {
	t.Helper()
	rec := httptest.NewRecorder()
	s.handleMetrics(rec, httptest.NewRequest(http.MethodGet, "/metrics"+query, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /metrics%s status %d", query, rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != wantType {
		t.Fatalf("GET /metrics%s content type %q, want %q", query, ct, wantType)
	}
	return rec.Body.Bytes()
}

// promRuntimeValue matches the value of every Go-runtime sample, which
// varies run to run.
var promRuntimeValue = regexp.MustCompile(`(?m)^(caai_runtime_\S+) .*$`)

// maskJSON replaces the run-dependent readings of a decoded JSON body:
// the runtime block and each model's load time.
func maskJSON(t *testing.T, body []byte) map[string]any {
	t.Helper()
	var v map[string]any
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatalf("decoding /metrics JSON: %v\n%s", err, body)
	}
	rt, ok := v["runtime"].(map[string]any)
	if !ok {
		t.Fatalf("/metrics JSON has no runtime object")
	}
	for k := range rt {
		rt[k] = "MASKED"
	}
	for _, m := range v["models"].([]any) {
		m.(map[string]any)["loaded_at"] = "MASKED"
	}
	return v
}

// TestMetricsGolden pins both renderings of GET /metrics: the Prometheus
// exposition byte for byte, the JSON body as a decoded value (key order
// is free; the two-space indent is checked on the raw body).
func TestMetricsGolden(t *testing.T) {
	s := goldenMetricsService(t)

	prom := promRuntimeValue.ReplaceAll(
		renderMetrics(t, s, "?format=prometheus", telemetry.PromContentType), []byte("$1 MASKED"))
	body := renderMetrics(t, s, "", "application/json")
	if !bytes.HasPrefix(body, []byte("{\n  \"")) {
		t.Fatalf("JSON body is not two-space indented:\n%.80s", body)
	}
	got := maskJSON(t, body)

	promPath := filepath.Join("testdata", "metrics.prom")
	jsonPath := filepath.Join("testdata", "metrics.json")
	if *update {
		enc, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(promPath, prom, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(jsonPath, append(enc, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	wantProm, err := os.ReadFile(promPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(prom, wantProm) {
		t.Errorf("Prometheus exposition differs from %s:\n%s", promPath, lineDiff(string(wantProm), string(prom)))
	}
	wantBody, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]any
	if err := json.Unmarshal(wantBody, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		enc, _ := json.MarshalIndent(got, "", "  ")
		t.Errorf("JSON body differs from %s:\n%s", jsonPath, lineDiff(string(wantBody), string(enc)+"\n"))
	}
}

// TestMetricsSnapshotMirrorsRegistry: the JSON body decodes into
// MetricsSnapshot with no unknown field, and re-encoding that struct
// gives back the same value, so no registry declaration can drift from
// the wire type clients decode. A fresh service covers the keys that
// are left out until they have a value (stages, endpoints, eval).
func TestMetricsSnapshotMirrorsRegistry(t *testing.T) {
	fresh, _ := newTestService(t, Config{}, &fakeClassifier{Label: "RENO", Confidence: 1})
	for name, s := range map[string]*Service{"fresh": fresh, "golden": goldenMetricsService(t)} {
		body := renderMetrics(t, s, "", "application/json")
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		var snap MetricsSnapshot
		if err := dec.Decode(&snap); err != nil {
			t.Fatalf("%s: decoding into MetricsSnapshot: %v", name, err)
		}
		again, err := json.MarshalIndent(snap, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		var want, got any
		if err := json.Unmarshal(body, &want); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(again, &got); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: MetricsSnapshot does not mirror the body:\n%s", name, lineDiff(string(body), string(again)))
		}
	}
}

// lineDiff lists the lines present on only one side, for focused failure
// messages.
func lineDiff(want, got string) string {
	count := func(s string) map[string]int {
		n := map[string]int{}
		for _, l := range bytes.Split([]byte(s), []byte("\n")) {
			n[string(l)]++
		}
		return n
	}
	w, g := count(want), count(got)
	var out bytes.Buffer
	for l, n := range w {
		if g[l] < n {
			out.WriteString("- " + l + "\n")
		}
	}
	for l, n := range g {
		if w[l] < n {
			out.WriteString("+ " + l + "\n")
		}
	}
	return out.String()
}
