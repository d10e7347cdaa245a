package service

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/eval"
)

// TestConcurrentSubmitCancelReloadRace hammers the async queue from every
// direction at once — batch submits, status polls, cancellations, model
// hot-reloads, metrics reads, and eval-summary swaps — so `go test -race`
// (which CI runs on every push) patrols the service's whole shared-state
// surface: the queue/closeMu handoff, the job store and retention queue,
// the registry swap path, and the metrics snapshot.
func TestConcurrentSubmitCancelReloadRace(t *testing.T) {
	dir := t.TempDir()
	path := saveFakeModel(t, dir, "m.json", "RENO-BIG", 0.9)
	reg := NewRegistry()
	if _, err := reg.Load("default", path); err != nil {
		t.Fatal(err)
	}
	s := New(reg, Config{Workers: 2, QueueSize: 8, JobRetention: 4, CacheSize: 16})
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		s.Close()
	}()

	const (
		submitters = 4
		rounds     = 8
	)
	var wg sync.WaitGroup

	// Submitters: each fires rounds small batches and polls/cancels them.
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				req := BatchRequest{Jobs: []JobSpec{
					{Server: ServerSpec{Algorithm: "RENO"}, Seed: int64(g*1000 + r + 1)},
					{Server: ServerSpec{Algorithm: "CUBIC2"}, Seed: int64(g*1000 + r + 1)},
				}}
				j, err := s.submit(context.Background(), req)
				if err != nil {
					continue // full queue under pressure is expected
				}
				if r%2 == 0 {
					if jb, ok := s.lookupJob(j.id); ok {
						jb.requestCancel()
					}
				}
				if jb, ok := s.lookupJob(j.id); ok {
					_ = jb.status()
				}
			}
		}(g)
	}

	// Reloader: hot-swaps the model file from under the running batches.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for r := 0; r < rounds; r++ {
			saveFakeModel(t, dir, "m.json", fmt.Sprintf("GEN%d", r), 0.9)
			resp, err := http.Post(ts.URL+"/v1/models/reload", "application/json", nil)
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
		}
	}()

	// Observer: metrics reads interleaved with eval-summary swaps.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for r := 0; r < rounds*2; r++ {
			s.SetEvalSummary(eval.Summary{Label: fmt.Sprintf("sweep-%d", r), OverallAccuracy: 0.9})
			resp, err := http.Get(ts.URL + "/metrics")
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
			_ = s.metrics.reg.WritePrometheus(io.Discard)
		}
	}()

	wg.Wait()

	// The service must still be coherent: a fresh sync identify works and
	// the counters parse.
	resp, data := postJSON(t, ts.URL+"/v1/identify", identifyBody("RENO", 424242))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-storm identify status %d: %s", resp.StatusCode, data)
	}
	var snap MetricsSnapshot
	getJSON(t, ts.URL+"/metrics", &snap)
	if snap.BatchAccepted < 1 {
		t.Fatalf("no batches were ever accepted: %+v", snap)
	}
	if snap.Eval == nil {
		t.Fatal("eval summary lost during the storm")
	}
}
