package core

import (
	"bytes"
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/classify"
	"repro/internal/forest"
	"repro/internal/netem"
	"repro/internal/probe"
	"repro/internal/websim"
)

// TestModelFileRecordsBudget: a model file carries the probe budget its
// model was trained at, and a file that records none -- every file
// written before budgets were recorded -- loads at the paper's.
func TestModelFileRecordsBudget(t *testing.T) {
	model := forest.Train(trainingSet(t), forest.Config{Trees: 5, Subspace: 4, Seed: 1})
	path := filepath.Join(t.TempDir(), "model.json")
	for _, budget := range []probe.Config{{}, probe.Paper, {WmaxLadder: []int{128, 64}, Requests: 6, MaxPreRounds: 25}} {
		want := NewIdentifierAt(model, budget)
		if err := want.SaveFile(path); err != nil {
			t.Fatal(err)
		}
		got, err := LoadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Probe(), want.Probe()) {
			t.Errorf("budget %+v: loaded %+v, saved %+v", budget, got.Probe(), want.Probe())
		}
	}

	var buf bytes.Buffer
	if err := classify.Save(&buf, model, nil); err != nil {
		t.Fatal(err)
	}
	legacy, err := load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(legacy.Probe(), probe.Paper.Resolved()) {
		t.Errorf("a file without a budget loaded at %+v, want the paper's %+v", legacy.Probe(), probe.Paper.Resolved())
	}
	if NewIdentifier(legacy) != legacy {
		t.Error("wrapping an identifier did not keep it (and its budget)")
	}
	if !reflect.DeepEqual(NewIdentifier(model).Probe(), probe.Config{}.Resolved()) {
		t.Errorf("a bare classifier is served at %+v, want the default budget", NewIdentifier(model).Probe())
	}
}

// TestTraceAboveTopRungIsUnsure: a trace gathered above the model's top
// trained rung answers UNSURE without a vote, while the same model taken
// as trained at a budget that covers the rung votes on it.
func TestTraceAboveTopRungIsUnsure(t *testing.T) {
	c := constantClassifier{label: "BIC", conf: 0.9}
	server := func() *websim.Server { return websim.Testbed("BIC") }
	lean := NewIdentifier(c).Identify(server(), netem.Lossless, probe.Paper, rand.New(rand.NewSource(3)))
	if !lean.Valid || lean.Wmax != 512 {
		t.Fatalf("paper-budget gathering: valid=%v wmax=%d, want a valid trace at 512", lean.Valid, lean.Wmax)
	}
	if lean.Label != LabelUnsure || lean.Confidence != 0 {
		t.Errorf("above the top rung: %s (confidence %v), want %s without a vote", lean.Label, lean.Confidence, LabelUnsure)
	}
	paper := NewIdentifierAt(c, probe.Paper).Identify(server(), netem.Lossless, probe.Paper, rand.New(rand.NewSource(3)))
	if paper.Label != "BIC" || paper.Confidence != 0.9 {
		t.Errorf("within the top rung: %s (confidence %v), want the model's BIC/0.9", paper.Label, paper.Confidence)
	}
}
