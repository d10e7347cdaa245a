package forest

import (
	"bytes"
	"math/rand"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/classify"
)

// persistDataset builds a small three-class dataset with enough structure
// that trees actually split.
func persistDataset(t *testing.T) *Dataset {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	centers := map[string][]float64{
		"a": {0, 0, 0},
		"b": {6, 6, 0},
		"c": {0, 6, 6},
	}
	var samples []Sample
	for label, c := range centers {
		for i := 0; i < 40; i++ {
			samples = append(samples, Sample{
				Features: []float64{
					c[0] + rng.NormFloat64(),
					c[1] + rng.NormFloat64(),
					c[2] + rng.NormFloat64(),
				},
				Label: label,
			})
		}
	}
	ds, err := NewDataset(samples)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// probeGrid is a deterministic set of query vectors spanning the dataset.
func probeGrid() [][]float64 {
	var grid [][]float64
	for x := -1.0; x <= 7; x += 1.6 {
		for y := -1.0; y <= 7; y += 1.6 {
			for z := -1.0; z <= 7; z += 1.6 {
				grid = append(grid, []float64{x, y, z})
			}
		}
	}
	return grid
}

func TestSaveLoadRoundTripExactLabels(t *testing.T) {
	ds := persistDataset(t)
	orig := Train(ds, Config{Trees: 25, Subspace: 2, Seed: 3})

	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(loaded.Classes(), orig.Classes()) {
		t.Fatalf("classes %v != %v", loaded.Classes(), orig.Classes())
	}
	for _, q := range probeGrid() {
		wantL, wantC := orig.Classify(q)
		gotL, gotC := loaded.Classify(q)
		if gotL != wantL || gotC != wantC {
			t.Fatalf("Classify(%v) = (%s, %v) after reload, want (%s, %v)", q, gotL, gotC, wantL, wantC)
		}
		if !reflect.DeepEqual(loaded.Votes(q), orig.Votes(q)) {
			t.Fatalf("Votes(%v) changed across save/load", q)
		}
	}
}

func TestSaveLoadFile(t *testing.T) {
	ds := persistDataset(t)
	orig := Train(ds, Config{Trees: 10, Subspace: 2, Seed: 5})
	path := filepath.Join(t.TempDir(), "model.json")
	if err := orig.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	q := []float64{5.5, 6.2, 0.3}
	wantL, _ := orig.Classify(q)
	if gotL, _ := loaded.Classify(q); gotL != wantL {
		t.Fatalf("got %s, want %s", gotL, wantL)
	}
}

func TestLoadRejectsCorruptModels(t *testing.T) {
	cases := map[string]string{
		"not json":       "pineapple",
		"bad version":    `{"version":99,"classes":["a"],"trees":[{"feature":[-1],"threshold":[0],"left":[0],"right":[0],"label":[0]}]}`,
		"no trees":       `{"version":1,"classes":["a"],"trees":[]}`,
		"no classes":     `{"version":1,"classes":[],"trees":[{"feature":[-1],"threshold":[0],"left":[0],"right":[0],"label":[0]}]}`,
		"ragged arrays":  `{"version":1,"classes":["a"],"trees":[{"feature":[-1,-1],"threshold":[0],"left":[0],"right":[0],"label":[0]}]}`,
		"label range":    `{"version":1,"classes":["a"],"trees":[{"feature":[-1],"threshold":[0],"left":[0],"right":[0],"label":[7]}]}`,
		"child range":    `{"version":1,"classes":["a"],"trees":[{"feature":[0],"threshold":[0],"left":[5],"right":[0],"label":[0]}]}`,
		"empty tree":     `{"version":1,"classes":["a"],"trees":[{"feature":[],"threshold":[],"left":[],"right":[],"label":[]}]}`,
		"negative child": `{"version":1,"classes":["a"],"trees":[{"feature":[0],"threshold":[0],"left":[-1],"right":[0],"label":[0]}]}`,
		"self cycle":     `{"version":1,"classes":["a"],"trees":[{"feature":[0,-1],"threshold":[0,0],"left":[0,0],"right":[1,0],"label":[0,0]}]}`,
		"back edge":      `{"version":1,"classes":["a"],"trees":[{"feature":[0,0,-1],"threshold":[0,0,0],"left":[1,0,0],"right":[2,2,0],"label":[0,0,0]}]}`,
		"feature range":  `{"version":1,"features":2,"classes":["a"],"trees":[{"feature":[9,-1,-1],"threshold":[0,0,0],"left":[1,0,0],"right":[2,0,0],"label":[0,0,0]}]}`,
		"negative width": `{"version":1,"features":-1,"classes":["a"],"trees":[{"feature":[-1],"threshold":[0],"left":[0],"right":[0],"label":[0]}]}`,
	}
	for name, doc := range cases {
		if _, err := Load(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: Load accepted a corrupt model", name)
		}
	}
}

func TestForestCodecRegistered(t *testing.T) {
	found := false
	for _, b := range classify.Codecs() {
		if b == BackendName {
			found = true
		}
	}
	if !found {
		t.Fatalf("forest codec not registered; have %v", classify.Codecs())
	}

	ds := persistDataset(t)
	orig := Train(ds, Config{Trees: 8, Subspace: 2, Seed: 9})
	var buf bytes.Buffer
	if err := classify.Save(&buf, orig, nil); err != nil {
		t.Fatal(err)
	}
	loaded, err := classify.Load(&buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Name() != BackendName {
		t.Fatalf("loaded backend %q", loaded.Name())
	}
	q := []float64{0.2, 5.8, 6.1}
	wantL, wantC := orig.Classify(q)
	if gotL, gotC := loaded.Classify(q); gotL != wantL || gotC != wantC {
		t.Fatalf("envelope round trip changed classification")
	}
}

// TestLoadedModelNeverPanicsOnShortVectors guards the resident-service
// crash vector: a model file whose split indices exceed the query width
// (legacy files have no declared width, so Load cannot reject them) must
// classify at zero confidence instead of panicking mid-tree-walk.
func TestLoadedModelNeverPanicsOnShortVectors(t *testing.T) {
	legacy := `{"version":1,"classes":["a","b"],"trees":[{"feature":[500,-1,-1],"threshold":[0,0,0],"left":[1,0,0],"right":[2,0,0],"label":[0,0,1]}]}`
	f, err := Load(strings.NewReader(legacy))
	if err != nil {
		t.Fatal(err)
	}
	if _, conf := f.Classify(make([]float64, 8)); conf != 0 {
		t.Fatalf("confidence = %v, want 0 for an undersized vector", conf)
	}
	// A vector wide enough for the declared splits still classifies.
	if label, conf := f.Classify(make([]float64, 501)); label != "a" || conf != 1 {
		t.Fatalf("wide vector classified as %s (%v)", label, conf)
	}
}

// TestSaveRecordsFeatureWidth checks new files carry the width and Load
// enforces it round-trip.
func TestSaveRecordsFeatureWidth(t *testing.T) {
	ds, err := NewDataset([]Sample{
		{Features: []float64{1, 2, 3}, Label: "x"},
		{Features: []float64{4, 5, 6}, Label: "y"},
	})
	if err != nil {
		t.Fatal(err)
	}
	f := Train(ds, Config{Trees: 3, Seed: 1})
	var buf bytes.Buffer
	if err := f.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"features":3`) {
		t.Fatalf("saved doc missing feature width: %s", buf.String())
	}
	loaded, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.width != 3 {
		t.Fatalf("loaded width = %d, want 3", loaded.width)
	}
	if _, conf := loaded.Classify([]float64{1}); conf != 0 {
		t.Fatalf("short vector got confidence %v, want 0", conf)
	}
}

func TestSaveLoadSaveIsIdempotent(t *testing.T) {
	// The level-order layout is canonical: once flattened, persisting and
	// reloading must reproduce the byte-identical document.
	ds := clusterDataset(t, 30, 113)
	f := Train(ds, Config{Trees: 9, Subspace: 2, Seed: 114})
	var b1 bytes.Buffer
	if err := f.Save(&b1); err != nil {
		t.Fatal(err)
	}
	g, err := Load(bytes.NewReader(b1.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var b2 bytes.Buffer
	if err := g.Save(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("Save -> Load -> Save changed the document; level-order layout is not canonical")
	}
}
