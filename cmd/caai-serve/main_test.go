package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	caai "repro"
	"repro/internal/eval"
	"repro/internal/trajectory"
)

func TestSplitModelFlag(t *testing.T) {
	cases := []struct {
		in, name, path string
		wantErr        bool
	}{
		{in: "prod=/models/a.json", name: "prod", path: "/models/a.json"},
		{in: "/models/caai-model.json", name: "caai-model", path: "/models/caai-model.json"},
		{in: "model.json", name: "model", path: "model.json"},
		{in: "=path", wantErr: true},
		{in: "name=", wantErr: true},
	}
	for _, tc := range cases {
		name, path, err := splitModelFlag(tc.in)
		if tc.wantErr {
			if err == nil {
				t.Errorf("splitModelFlag(%q) expected error", tc.in)
			}
			continue
		}
		if err != nil || name != tc.name || path != tc.path {
			t.Errorf("splitModelFlag(%q) = %q, %q, %v; want %q, %q", tc.in, name, path, err, tc.name, tc.path)
		}
	}
}

func TestRunArgumentErrors(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string // substring of the expected error
	}{
		{"unknown flag", []string{"-bogus"}, "flag provided but not defined"},
		{"no model no train", nil, "no models"},
		{"missing model file", []string{"-model", "/does/not/exist.json"}, "exist.json"},
		{"malformed model flag", []string{"-model", "=x"}, "want [name=]path"},
		{"positional args", []string{"-train", "1", "extra"}, "unexpected arguments"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			err := run(context.Background(), tc.args, &out)
			if err == nil {
				t.Fatalf("run(%v) succeeded, want error containing %q", tc.args, tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("run(%v) err = %v, want substring %q", tc.args, err, tc.want)
			}
		})
	}
}

// syncBuffer lets the test read run()'s output while run still writes it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

var listenRe = regexp.MustCompile(`listening on (http://\S+)`)

// startServe launches run() on a free loopback port and returns the base
// URL plus a shutdown func that asserts a clean exit.
func startServe(t *testing.T, args []string) (string, *syncBuffer, func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	out := &syncBuffer{}
	done := make(chan error, 1)
	go func() { done <- run(ctx, append([]string{"-addr", "127.0.0.1:0"}, args...), out) }()

	deadline := time.Now().Add(60 * time.Second)
	var base string
	for base == "" {
		if m := listenRe.FindStringSubmatch(out.String()); m != nil {
			base = m[1]
			break
		}
		select {
		case err := <-done:
			t.Fatalf("run exited before listening: %v\noutput: %s", err, out.String())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never listened; output: %s", out.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
	shutdown := sync.OnceFunc(func() {
		cancel()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("run returned %v on shutdown", err)
			}
		case <-time.After(30 * time.Second):
			t.Error("run did not return within 30s of cancellation")
		}
	})
	return base, out, shutdown
}

func postJSON(t *testing.T, url string, body any) (int, []byte) {
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
	return resp.StatusCode, data
}

// TestServeEndToEnd exercises the acceptance flow against a real listener:
// train a quick-scale model, serve it, identify synchronously, run an
// async batch to completion, hot-swap the model file via /v1/models/reload,
// and confirm a repeated request is answered from the cache via /metrics.
func TestServeEndToEnd(t *testing.T) {
	// NewQuickContext-scale training options (12 conditions per pair).
	id, err := caai.Train(caai.TrainingOptions{ConditionsPerPair: 12, Trees: 20, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	modelPath := filepath.Join(dir, "model.json")
	if err := id.SaveModel(modelPath); err != nil {
		t.Fatal(err)
	}

	base, out, shutdown := startServe(t, []string{"-model", "caai=" + modelPath, "-workers", "2", "-trace-sample", "1"})
	defer shutdown()

	if !strings.Contains(out.String(), `loaded RandomForest model "caai"`) {
		t.Fatalf("missing load banner in output: %s", out.String())
	}

	// Liveness.
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}

	// Synchronous identification of a CUBIC2 testbed server.
	identifyReq := map[string]any{
		"server": map[string]any{"algorithm": "CUBIC2"},
		"seed":   3,
	}
	status, data := postJSON(t, base+"/v1/identify", identifyReq)
	if status != http.StatusOK {
		t.Fatalf("identify = %d: %s", status, data)
	}
	var ident struct {
		Model  string `json:"model"`
		Label  string `json:"label"`
		Valid  bool   `json:"valid"`
		Cached bool   `json:"cached"`
	}
	if err := json.Unmarshal(data, &ident); err != nil {
		t.Fatal(err)
	}
	if !ident.Valid || ident.Cached || ident.Model != "caai@1" {
		t.Fatalf("identify = %+v (%s)", ident, data)
	}
	if ident.Label == "" {
		t.Fatalf("no label in %s", data)
	}

	// Async batch: submit, poll to completion.
	batchReq := map[string]any{"jobs": []map[string]any{
		{"server": map[string]any{"algorithm": "RENO"}, "seed": 11},
		{"server": map[string]any{"algorithm": "BIC"}, "seed": 12},
	}}
	status, data = postJSON(t, base+"/v1/batch", batchReq)
	if status != http.StatusAccepted {
		t.Fatalf("batch = %d: %s", status, data)
	}
	var acc struct {
		JobID  string `json:"job_id"`
		Status string `json:"status_url"`
	}
	if err := json.Unmarshal(data, &acc); err != nil {
		t.Fatal(err)
	}
	var job struct {
		State     string `json:"state"`
		Completed int    `json:"completed"`
		Results   []struct {
			Valid bool   `json:"valid"`
			Label string `json:"label"`
		} `json:"results"`
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := http.Get(base + acc.Status)
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&job)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if job.State == "done" || job.State == "failed" || job.State == "cancelled" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("batch stuck in %s", job.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if job.State != "done" || job.Completed != 2 || len(job.Results) != 2 {
		t.Fatalf("batch final = %+v", job)
	}
	for i, r := range job.Results {
		if !r.Valid {
			t.Fatalf("batch result %d invalid", i)
		}
	}

	// Hot-swap: re-save the model file, reload, and expect a new version.
	if err := id.SaveModel(modelPath); err != nil {
		t.Fatal(err)
	}
	status, data = postJSON(t, base+"/v1/models/reload", nil)
	if status != http.StatusOK {
		t.Fatalf("reload = %d: %s", status, data)
	}
	var rel struct {
		Reloaded []struct {
			Version string `json:"version"`
		} `json:"reloaded"`
	}
	if err := json.Unmarshal(data, &rel); err != nil {
		t.Fatal(err)
	}
	if len(rel.Reloaded) != 1 || rel.Reloaded[0].Version != "caai@2" {
		t.Fatalf("reloaded = %s", data)
	}

	// The same identify request now misses (new model version) ...
	status, data = postJSON(t, base+"/v1/identify", identifyReq)
	if status != http.StatusOK {
		t.Fatalf("identify after reload = %d", status)
	}
	if err := json.Unmarshal(data, &ident); err != nil {
		t.Fatal(err)
	}
	if ident.Cached || ident.Model != "caai@2" {
		t.Fatalf("identify after reload = %+v", ident)
	}
	// ... and repeating it is a cache hit, visible in /metrics.
	status, data = postJSON(t, base+"/v1/identify", identifyReq)
	if status != http.StatusOK {
		t.Fatalf("repeat identify = %d", status)
	}
	if err := json.Unmarshal(data, &ident); err != nil {
		t.Fatal(err)
	}
	if !ident.Cached {
		t.Fatalf("repeat identify not cached: %s", data)
	}

	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var metrics struct {
		Cache struct {
			Hits   int64 `json:"hits"`
			Misses int64 `json:"misses"`
		} `json:"cache"`
		ModelsReloaded int64 `json:"models_reloaded"`
		Labels         map[string]int64
	}
	err = json.NewDecoder(resp.Body).Decode(&metrics)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if metrics.Cache.Hits < 1 {
		t.Fatalf("metrics cache hits = %d, want >= 1", metrics.Cache.Hits)
	}
	if metrics.Cache.Misses < 4 {
		t.Fatalf("metrics cache misses = %d, want >= 4", metrics.Cache.Misses)
	}
	if metrics.ModelsReloaded != 1 {
		t.Fatalf("models_reloaded = %d, want 1", metrics.ModelsReloaded)
	}

	// Flight recorder: with -trace-sample 1 every request above is
	// retained, so the sync identify's trace is listable by route and its
	// full span tree resolvable by ID.
	resp, err = http.Get(base + "/v1/traces?route=POST+%2Fv1%2Fidentify&limit=5")
	if err != nil {
		t.Fatal(err)
	}
	var traces struct {
		Traces []struct {
			ID    string `json:"id"`
			Route string `json:"route"`
			Spans int    `json:"spans"`
		} `json:"traces"`
	}
	err = json.NewDecoder(resp.Body).Decode(&traces)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(traces.Traces) == 0 {
		t.Fatal("no retained traces for POST /v1/identify with -trace-sample 1")
	}
	resp, err = http.Get(base + "/v1/traces/" + traces.Traces[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	var tr struct {
		ID    string `json:"id"`
		Spans []struct {
			Kind string `json:"kind"`
			Name string `json:"name"`
		} `json:"spans"`
	}
	err = json.NewDecoder(resp.Body).Decode(&tr)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if tr.ID != traces.Traces[0].ID {
		t.Fatalf("trace lookup returned %q, want %q", tr.ID, traces.Traces[0].ID)
	}

	// Shutdown banner appears on clean exit.
	shutdown()
	if !strings.Contains(out.String(), "shut down") {
		t.Fatalf("missing shutdown banner: %s", out.String())
	}
}

// TestServeTrainInProcess covers the -train path at minimal scale.
func TestServeTrainInProcess(t *testing.T) {
	base, out, shutdown := startServe(t, []string{"-train", "2", "-trees", "8", "-seed", "5"})
	defer shutdown()
	if !strings.Contains(out.String(), "training random forest") {
		t.Fatalf("missing training banner: %s", out.String())
	}
	status, data := postJSON(t, base+"/v1/identify", map[string]any{
		"server": map[string]any{"algorithm": "RENO"},
	})
	if status != http.StatusOK {
		t.Fatalf("identify = %d: %s", status, data)
	}
	var ident struct {
		Model string `json:"model"`
		Valid bool   `json:"valid"`
	}
	if err := json.Unmarshal(data, &ident); err != nil {
		t.Fatal(err)
	}
	if !ident.Valid || ident.Model != "default@1" {
		t.Fatalf("identify = %+v", ident)
	}
}

func TestRunHelpIsNotAnError(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-h"}, &out); err != nil {
		t.Fatalf("run(-h) = %v", err)
	}
	if !strings.Contains(out.String(), "Usage of caai-serve") {
		t.Fatalf("usage not printed:\n%s", out.String())
	}
}

func TestRunRejectsDuplicateModelNames(t *testing.T) {
	var out bytes.Buffer
	err := run(context.Background(), []string{"-model", "a/model.json", "-model", "b/model.json"}, &out)
	if err == nil || !strings.Contains(err.Error(), "used for both") {
		t.Fatalf("duplicate names err = %v", err)
	}
}

func TestRunRejectsModelPlusTrain(t *testing.T) {
	var out bytes.Buffer
	err := run(context.Background(), []string{"-model", "m.json", "-train", "4"}, &out)
	if err == nil || !strings.Contains(err.Error(), "mutually exclusive") {
		t.Fatalf("-model + -train err = %v", err)
	}
}

// TestServeEvalSummaryFlag: -eval loads the newest ACCURACY_<n>.json of a
// history directory and exposes its summary on GET /metrics.
func TestServeEvalSummaryFlag(t *testing.T) {
	dir := t.TempDir()
	older := eval.Point{Schema: eval.PointSchema, Source: "caai-eval",
		Summary: eval.Summary{Label: "older", OverallAccuracy: 0.8}}
	newest := eval.Point{Schema: eval.PointSchema, Source: "caai-eval",
		Summary: eval.Summary{Label: "newest", OverallAccuracy: 0.9,
			ScenarioAccuracy: map[string]float64{"clean": 0.99}}}
	if err := trajectory.Write(filepath.Join(dir, "ACCURACY_0.json"), older); err != nil {
		t.Fatal(err)
	}
	if err := trajectory.Write(filepath.Join(dir, "ACCURACY_1.json"), newest); err != nil {
		t.Fatal(err)
	}

	base, out, shutdown := startServe(t, []string{"-train", "3", "-trees", "8", "-eval", dir})
	defer shutdown()
	if !strings.Contains(out.String(), `serving eval summary "newest"`) {
		t.Fatalf("missing eval banner: %s", out.String())
	}
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap struct {
		Eval *eval.Summary `json:"eval"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Eval == nil || snap.Eval.Label != "newest" || snap.Eval.ScenarioAccuracy["clean"] != 0.99 {
		t.Fatalf("metrics eval = %+v", snap.Eval)
	}
}

// TestLoadEvalSummaryErrors: a missing path, an empty history, and a
// non-ACCURACY JSON file all fail loudly instead of serving silence.
func TestLoadEvalSummaryErrors(t *testing.T) {
	if _, err := loadEvalSummary(filepath.Join(t.TempDir(), "nope.json")); err == nil {
		t.Fatal("missing -eval path should error")
	}
	if _, err := loadEvalSummary(t.TempDir()); err == nil {
		t.Fatal("empty -eval history should error")
	}
	foreign := filepath.Join(t.TempDir(), "BENCH_0.json")
	if err := os.WriteFile(foreign, []byte(`{"schema":1,"source":"caai-bench"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadEvalSummary(foreign); err == nil {
		t.Fatal("a non-ACCURACY point should be rejected, not served as 0% accuracy")
	}
	var out bytes.Buffer
	err := run(context.Background(), []string{"-train", "1", "-eval", "/does/not/exist"}, &out)
	if err == nil || !strings.Contains(err.Error(), "-eval") {
		t.Fatalf("run with bad -eval = %v", err)
	}
}
