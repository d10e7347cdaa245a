package service

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/probe"
)

// TestServedBudgetTravelsWithModel: each model is probed at the budget it
// was trained at -- an in-process classifier at the default budget, a
// model file at the budget it records -- on the identify and batch paths.
func TestServedBudgetTravelsWithModel(t *testing.T) {
	registerFakeCodec()
	path := filepath.Join(t.TempDir(), "paper.json")
	if err := core.NewIdentifierAt(&fakeClassifier{Label: "BIC", Confidence: 1}, probe.Paper).SaveFile(path); err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	reg.Add("lean", &fakeClassifier{Label: "BIC", Confidence: 1})
	if _, err := reg.Load("paper", path); err != nil {
		t.Fatal(err)
	}
	s := New(reg, Config{})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})

	// The testbed's BIC times out at the first rung of any ladder.
	for model, want := range map[string]int{"lean": probe.Config{}.Resolved().WmaxLadder[0], "paper": 512} {
		body := identifyBody("BIC", 5)
		body["model"] = model
		resp, data := postJSON(t, ts.URL+"/v1/identify", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: identify status %d: %s", model, resp.StatusCode, data)
		}
		var r IdentifyResponse
		if err := json.Unmarshal(data, &r); err != nil {
			t.Fatal(err)
		}
		if !r.Valid || r.Wmax != want {
			t.Errorf("%s: identify answered %q at wmax %d, want a valid trace at %d", model, r.Text, r.Wmax, want)
		}

		resp, data = postJSON(t, ts.URL+"/v1/batch", map[string]any{
			"model": model,
			"jobs":  []map[string]any{{"server": map[string]any{"algorithm": "BIC"}, "seed": 9}},
		})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("%s: batch status %d: %s", model, resp.StatusCode, data)
		}
		var acc BatchAccepted
		if err := json.Unmarshal(data, &acc); err != nil {
			t.Fatal(err)
		}
		st := pollJob(t, ts.URL, acc.JobID, 30*time.Second)
		if st.State != StateDone || len(st.Results) != 1 || st.Results[0].Wmax != want {
			t.Errorf("%s: batch finished %s with %+v, want one answer at wmax %d", model, st.State, st.Results, want)
		}
	}
}
