package service

import (
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/classify"
	"repro/internal/core"
)

// fakeClassifier is a deterministic stand-in for a trained model: it
// labels everything with Label at Confidence, skipping real training so
// service tests stay fast.
type fakeClassifier struct {
	Label      string  `json:"label"`
	Confidence float64 `json:"confidence"`

	// gate, when non-nil, blocks every Classify call until the channel is
	// closed -- the tests use it to hold batch jobs in the running state.
	gate chan struct{}
	// started, when non-nil, receives one send as each Classify call
	// enters (before blocking on gate), so tests can wait for a probe to
	// be provably in flight.
	started chan struct{}
}

func (f *fakeClassifier) Name() string { return "svc-test" }

func (f *fakeClassifier) Classify([]float64) (string, float64) {
	if f.started != nil {
		f.started <- struct{}{}
	}
	if f.gate != nil {
		<-f.gate
	}
	return f.Label, f.Confidence
}

// fakeCodec persists fakeClassifier so registry reload tests can round-trip
// models through disk without training a forest.
type fakeCodec struct{}

func (fakeCodec) Backend() string { return "svc-test" }

func (fakeCodec) Encode(w io.Writer, c classify.Classifier) error {
	return json.NewEncoder(w).Encode(c.(*fakeClassifier))
}

func (fakeCodec) Decode(r io.Reader) (classify.Classifier, error) {
	var f fakeClassifier
	if err := json.NewDecoder(r).Decode(&f); err != nil {
		return nil, err
	}
	return &f, nil
}

var registerFakeOnce sync.Once

// registerFakeCodec installs the svc-test codec exactly once per test
// binary (RegisterCodec panics on duplicates).
func registerFakeCodec() {
	registerFakeOnce.Do(func() { classify.RegisterCodec(fakeCodec{}) })
}

// saveFakeModel writes a fake model file and returns its path.
func saveFakeModel(t *testing.T, dir, name, label string, conf float64) string {
	t.Helper()
	registerFakeCodec()
	path := filepath.Join(dir, name)
	if err := core.NewIdentifier(&fakeClassifier{Label: label, Confidence: conf}).SaveFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRegistryDefaultIsFirstRegistered(t *testing.T) {
	r := NewRegistry()
	r.Add("alpha", &fakeClassifier{Label: "A", Confidence: 1})
	r.Add("beta", &fakeClassifier{Label: "B", Confidence: 1})
	m, err := r.Get("")
	if err != nil {
		t.Fatal(err)
	}
	if m.Name != "alpha" {
		t.Fatalf("default model = %s, want alpha", m.Name)
	}
	if names := r.Names(); names[0] != "alpha" || len(names) != 2 {
		t.Fatalf("Names() = %v", names)
	}
}

func TestRegistryGetUnknown(t *testing.T) {
	r := NewRegistry()
	r.Add("only", &fakeClassifier{Label: "X", Confidence: 1})
	if _, err := r.Get("nope"); !errors.Is(err, ErrNoModel) {
		t.Fatalf("Get(nope) err = %v, want ErrNoModel", err)
	}
}

func TestRegistryHotSwapBumpsGeneration(t *testing.T) {
	r := NewRegistry()
	m1 := r.Add("m", &fakeClassifier{Label: "OLD", Confidence: 1})
	if m1.Generation != 1 || m1.Version() != "m@1" {
		t.Fatalf("first install: gen %d version %s", m1.Generation, m1.Version())
	}
	m2 := r.Add("m", &fakeClassifier{Label: "NEW", Confidence: 1})
	if m2.Generation != 2 || m2.Version() != "m@2" {
		t.Fatalf("swap: gen %d version %s", m2.Generation, m2.Version())
	}
	// The old *Model stays usable for requests that resolved it pre-swap.
	if label, _ := m1.Identifier().Classifier().Classify(nil); label != "OLD" {
		t.Fatalf("pre-swap model now answers %s", label)
	}
	got, _ := r.Get("m")
	if label, _ := got.Identifier().Classifier().Classify(nil); label != "NEW" {
		t.Fatalf("post-swap Get answers %s", label)
	}
}

func TestRegistryLoadAndReloadFromDisk(t *testing.T) {
	dir := t.TempDir()
	path := saveFakeModel(t, dir, "m.json", "FIRST", 0.9)
	r := NewRegistry()
	m, err := r.Load("m", path)
	if err != nil {
		t.Fatal(err)
	}
	if m.Backend != "svc-test" || m.Path != path || m.Generation != 1 {
		t.Fatalf("loaded model = %+v", m)
	}

	// Overwrite the file and reload: the swap must serve the new weights.
	saveFakeModel(t, dir, "m.json", "SECOND", 0.8)
	reloaded, err := r.Reload()
	if err != nil {
		t.Fatal(err)
	}
	if len(reloaded) != 1 || reloaded[0].Generation != 2 {
		t.Fatalf("reloaded = %+v", reloaded)
	}
	got, _ := r.Get("m")
	if label, _ := got.Identifier().Classifier().Classify(nil); label != "SECOND" {
		t.Fatalf("post-reload label = %s", label)
	}
}

func TestRegistryReloadFailureKeepsServing(t *testing.T) {
	dir := t.TempDir()
	path := saveFakeModel(t, dir, "m.json", "GOOD", 0.9)
	r := NewRegistry()
	if _, err := r.Load("m", path); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte("not a model"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Reload(); err == nil {
		t.Fatal("reload of a corrupt file reported success")
	}
	// The old entry must still answer.
	got, err := r.Get("m")
	if err != nil {
		t.Fatal(err)
	}
	if got.Generation != 1 {
		t.Fatalf("corrupt reload bumped generation to %d", got.Generation)
	}
	if label, _ := got.Identifier().Classifier().Classify(nil); label != "GOOD" {
		t.Fatalf("model answers %s after failed reload", label)
	}
}

func TestRegistryReloadSkipsInProcessModels(t *testing.T) {
	r := NewRegistry()
	r.Add("mem", &fakeClassifier{Label: "M", Confidence: 1})
	reloaded, err := r.Reload()
	if err != nil {
		t.Fatal(err)
	}
	if len(reloaded) != 0 {
		t.Fatalf("reload touched %d in-process models", len(reloaded))
	}
}

func TestAddOverFileBackedModelClearsPath(t *testing.T) {
	dir := t.TempDir()
	path := saveFakeModel(t, dir, "m.json", "DISK", 0.9)
	r := NewRegistry()
	if _, err := r.Load("m", path); err != nil {
		t.Fatal(err)
	}
	// Hot-swap with an in-process classifier: the stale file must not be
	// resurrectable by a later Reload.
	r.Add("m", &fakeClassifier{Label: "MEM", Confidence: 1})
	reloaded, err := r.Reload()
	if err != nil {
		t.Fatal(err)
	}
	if len(reloaded) != 0 {
		t.Fatalf("Reload touched %d models, want 0 (in-process swap)", len(reloaded))
	}
	m, _ := r.Get("m")
	if label, _ := m.Identifier().Classifier().Classify(nil); label != "MEM" {
		t.Fatalf("serving %s after in-process swap", label)
	}
}
