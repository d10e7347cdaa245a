package caai

import (
	"math/rand"
	"path/filepath"
	"testing"
	"time"
)

// sharedIdentifier caches one trained identifier across the facade tests.
var sharedIdentifier *Identifier

func identifier(t *testing.T) *Identifier {
	t.Helper()
	if sharedIdentifier == nil {
		id, err := Train(TrainingOptions{ConditionsPerPair: 8, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		sharedIdentifier = id
	}
	return sharedIdentifier
}

func TestAlgorithmsList(t *testing.T) {
	names := Algorithms()
	if len(names) != 14 {
		t.Fatalf("Algorithms() = %v", names)
	}
}

func TestNewAlgorithm(t *testing.T) {
	alg, err := NewAlgorithm("CUBIC2")
	if err != nil || alg.Name() != "CUBIC2" {
		t.Fatalf("NewAlgorithm: %v, %v", alg, err)
	}
	if _, err := NewAlgorithm("BOGUS"); err == nil {
		t.Fatal("expected error")
	}
}

func TestFacadeEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("expensive")
	}
	id := identifier(t)
	for _, alg := range []string{"CUBIC2", "BIC", "STCP"} {
		got := id.Identify(NewTestbedServer(alg), LosslessCondition(), rand.New(rand.NewSource(3)))
		if !got.Valid {
			t.Fatalf("%s: invalid (%s)", alg, got.Reason)
		}
		if got.Label != alg {
			t.Errorf("%s identified as %s (%.0f%%)", alg, got.Label, got.Confidence*100)
		}
	}
}

func TestGatherAndExtract(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ta, tb, wmax, valid := GatherTraces(NewTestbedServer("RENO"), LosslessCondition(), ProbeConfig{}, rng)
	if !valid {
		t.Fatal("gather failed")
	}
	if wmax != 256 {
		t.Fatalf("wmax = %d, want 256 (the served ladder's first entry works on the testbed)", wmax)
	}
	v := ExtractFeatures(ta, tb)
	if v[0] != 0.5 {
		t.Fatalf("betaA = %v, want 0.5", v[0])
	}
}

func TestSampleCondition(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	c := SampleCondition(rng)
	if c.MeanRTT <= 0 {
		t.Fatalf("condition = %v", c)
	}
}

func TestTrainingSetExposed(t *testing.T) {
	if testing.Short() {
		t.Skip("expensive")
	}
	id := identifier(t)
	// 14 algorithms x the served ladder's 3 wmax rungs x 8 conditions.
	if id.TrainingSet().Len() != 14*3*8 {
		t.Fatalf("training set = %d", id.TrainingSet().Len())
	}
}

func TestDefaultInterEnvWait(t *testing.T) {
	if DefaultInterEnvWait != 10*time.Minute {
		t.Fatal("paper wait changed")
	}
}

func TestSaveLoadModelRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("expensive")
	}
	id := identifier(t)
	path := filepath.Join(t.TempDir(), "model.json")
	if err := id.SaveModel(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadModel(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.TrainingSet() != nil {
		t.Fatal("loaded identifier should not carry a training set")
	}
	// The loaded model must reproduce the in-memory model's labels
	// exactly on a deterministic server set.
	for i, alg := range Algorithms() {
		server := NewTestbedServer(alg)
		want := id.Identify(server, LosslessCondition(), rand.New(rand.NewSource(int64(i))))
		got := loaded.Identify(server, LosslessCondition(), rand.New(rand.NewSource(int64(i))))
		if got.Label != want.Label || got.Confidence != want.Confidence {
			t.Errorf("%s: loaded model says %s/%v, in-memory says %s/%v",
				alg, got.Label, got.Confidence, want.Label, want.Confidence)
		}
	}
}

func TestLoadModelMissingFile(t *testing.T) {
	if _, err := LoadModel(filepath.Join(t.TempDir(), "nope.json")); err == nil {
		t.Fatal("expected error")
	}
}

func TestIdentifyBatchMatchesSingleAndIsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("expensive")
	}
	id := identifier(t)
	algs := []string{"CUBIC2", "BIC", "STCP", "RENO", "VEGAS", "HTCP"}
	jobs := make([]BatchJob, len(algs))
	for i, alg := range algs {
		jobs[i] = BatchJob{Server: NewTestbedServer(alg), Cond: LosslessCondition(), Seed: int64(100 + i)}
	}
	serial := id.IdentifyBatch(jobs, BatchOptions{Parallelism: 1, Seed: 7})
	parallel := id.IdentifyBatch(jobs, BatchOptions{Parallelism: 4, Seed: 7})
	for i := range jobs {
		if serial[i].Label != parallel[i].Label || serial[i].Confidence != parallel[i].Confidence {
			t.Errorf("job %d: parallelism changed the result (%s vs %s)",
				i, serial[i].Label, parallel[i].Label)
		}
		want := id.Identify(NewTestbedServer(algs[i]), LosslessCondition(), rand.New(rand.NewSource(int64(100+i))))
		if serial[i].Label != want.Label {
			t.Errorf("job %d: batch says %s, single-shot says %s", i, serial[i].Label, want.Label)
		}
	}
}

func TestTrainWithClassifierBackends(t *testing.T) {
	if testing.Short() {
		t.Skip("expensive")
	}
	// kNN memorizes the training set, so on the lossless testbed it
	// should still recognize an easy, distinctive algorithm.
	id, err := TrainWithClassifier(TrainingOptions{ConditionsPerPair: 4, Seed: 31}, "knn")
	if err != nil {
		t.Fatal(err)
	}
	if id.Classifier().Name() != "kNN" {
		t.Fatalf("backend = %s", id.Classifier().Name())
	}
	got := id.Identify(NewTestbedServer("VEGAS"), LosslessCondition(), rand.New(rand.NewSource(2)))
	if !got.Valid {
		t.Fatalf("invalid: %s", got.Reason)
	}
	if got.Label != "VEGAS" {
		t.Errorf("kNN identified VEGAS as %s", got.Label)
	}

	if _, err := TrainWithClassifier(TrainingOptions{ConditionsPerPair: 1}, "quantum"); err == nil {
		t.Fatal("expected error for unknown backend")
	}
}

func TestClassifierBackendsListed(t *testing.T) {
	backends := ClassifierBackends()
	want := map[string]bool{"randomforest": false, "knn": false, "naivebayes": false, "decisiontree": false, "neuralnet": false, "linearsvm": false}
	for _, b := range backends {
		if _, ok := want[b]; ok {
			want[b] = true
		}
	}
	for b, seen := range want {
		if !seen {
			t.Errorf("backend %s missing from %v", b, backends)
		}
	}
}

func TestNewIdentifierFromClassifier(t *testing.T) {
	trained := identifier(t)
	wrapped := NewIdentifierFromClassifier(trained.Classifier())
	if wrapped.TrainingSet() != nil {
		t.Fatal("wrapped identifier exposes a training set")
	}
	if wrapped.Classifier() != trained.Classifier() {
		t.Fatal("wrapped identifier swapped the classifier")
	}
	rng := rand.New(rand.NewSource(9))
	got := wrapped.Identify(NewTestbedServer("CUBIC2"), LosslessCondition(), rng)
	want := trained.Identify(NewTestbedServer("CUBIC2"), LosslessCondition(), rand.New(rand.NewSource(9)))
	if got != want {
		t.Fatalf("wrapped identify = %+v, trained identify = %+v", got, want)
	}
}
