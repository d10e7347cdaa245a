package core

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/cc"
	"repro/internal/feature"
	"repro/internal/forest"
	"repro/internal/netem"
	"repro/internal/probe"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/websim"
)

func TestTrainingLabel(t *testing.T) {
	tests := []struct {
		alg  string
		wmax int
		want string
	}{
		{"RENO", 64, LabelRCSmall},
		{"RENO", 128, LabelRCSmall},
		{"RENO", 256, "RENO-BIG"},
		{"RENO", 512, "RENO-BIG"},
		{"CTCP1", 128, LabelRCSmall},
		{"CTCP1", 512, "CTCP1-BIG"},
		{"CTCP2", 64, LabelRCSmall},
		{"CTCP2", 256, "CTCP2-BIG"},
		{"CUBIC2", 64, "CUBIC2"},
		{"BIC", 512, "BIC"},
		{"VEGAS", 128, "VEGAS"},
	}
	for _, tc := range tests {
		if got := TrainingLabel(tc.alg, tc.wmax); got != tc.want {
			t.Errorf("TrainingLabel(%s, %d) = %s, want %s", tc.alg, tc.wmax, got, tc.want)
		}
	}
}

func TestGatherPairLossless(t *testing.T) {
	p := probe.New(probe.Config{}, netem.Lossless, rand.New(rand.NewSource(1)))
	vec, ok := gatherPair(p, new(feature.Scratch), websim.Testbed("RENO"), 256, 536)
	if !ok {
		t.Fatal("gather failed")
	}
	if vec[0] != 0.5 {
		t.Fatalf("betaA = %v, want 0.5", vec[0])
	}
	if vec[6] != 1 {
		t.Fatalf("flag = %v, want 1", vec[6])
	}
}

// smallTrainingSet caches a reduced training set for the package's tests.
var smallTrainingSet *forest.Dataset

func trainingSet(t *testing.T) *forest.Dataset {
	t.Helper()
	if smallTrainingSet != nil {
		return smallTrainingSet
	}
	ds, err := GenerateTrainingSet(netem.MeasuredDatabase(), TrainingConfig{ConditionsPerPair: 8, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	smallTrainingSet = ds
	return ds
}

func TestGenerateTrainingSetShape(t *testing.T) {
	ds := trainingSet(t)
	// 14 algorithms x the served ladder's 3 wmax rungs x 8 conditions.
	if ds.Len() != 14*3*8 {
		t.Fatalf("training set size = %d, want %d", ds.Len(), 14*3*8)
	}
	classes := ds.Classes()
	if len(classes) != 15 {
		t.Fatalf("classes = %v, want 15", classes)
	}
	found := map[string]bool{}
	for _, c := range classes {
		found[c] = true
	}
	for _, want := range []string{LabelRCSmall, "RENO-BIG", "CTCP1-BIG", "CTCP2-BIG", "BIC", "CUBIC1", "CUBIC2", "VEGAS", "WESTWOOD"} {
		if !found[want] {
			t.Errorf("class %s missing", want)
		}
	}
	// Label counts: RC-SMALL merges 3 algorithms x 2 wmax values.
	counts := map[string]int{}
	for _, s := range ds.Samples() {
		counts[s.Label]++
	}
	if counts[LabelRCSmall] != 3*2*8 {
		t.Fatalf("RC-SMALL count = %d, want %d", counts[LabelRCSmall], 3*2*8)
	}
	if counts["BIC"] != 3*8 {
		t.Fatalf("BIC count = %d, want %d", counts["BIC"], 3*8)
	}
}

func TestIdentifierEndToEnd(t *testing.T) {
	model := forest.Train(trainingSet(t), forest.Config{Trees: 40, Subspace: 4, Seed: 3})
	id := NewIdentifier(model)
	for _, alg := range []string{"RENO", "BIC", "CUBIC1", "CUBIC2", "STCP", "VEGAS", "WESTWOOD", "HTCP"} {
		got := id.Identify(websim.Testbed(alg), netem.Lossless, probe.Config{}, rand.New(rand.NewSource(5)))
		if !got.Valid {
			t.Errorf("%s: invalid (%s)", alg, got.Reason)
			continue
		}
		want := TrainingLabel(alg, got.Wmax)
		if got.Label != want {
			t.Errorf("%s: identified as %s (confidence %.2f), want %s", alg, got.Label, got.Confidence, want)
		}
	}
}

func TestIdentifierSpecialTraceShortCircuits(t *testing.T) {
	model := forest.Train(trainingSet(t), forest.Config{Trees: 20, Subspace: 4, Seed: 4})
	id := NewIdentifier(model)
	server := websim.Testbed("RENO")
	server.PostTimeoutClamp = 1
	got := id.Identify(server, netem.Lossless, probe.Config{}, rand.New(rand.NewSource(6)))
	if !got.Valid {
		t.Fatalf("invalid: %s", got.Reason)
	}
	if got.Special != trace.RemainingAtOne {
		t.Fatalf("special = %v, want RemainingAtOne", got.Special)
	}
	if got.Label != "" {
		t.Fatalf("special traces must not be classified, got %s", got.Label)
	}
	if !strings.Contains(got.String(), "Remaining at 1 Packet") {
		t.Fatalf("String = %q", got.String())
	}
}

func TestIdentifierInvalidTrace(t *testing.T) {
	model := forest.Train(trainingSet(t), forest.Config{Trees: 20, Subspace: 4, Seed: 7})
	id := NewIdentifier(model)
	server := websim.Testbed("RENO")
	server.IgnoreRTO = true
	got := id.Identify(server, netem.Lossless, probe.Config{}, rand.New(rand.NewSource(8)))
	if got.Valid {
		t.Fatal("expected invalid identification")
	}
	if got.Reason != probe.ReasonNoResponse {
		t.Fatalf("reason = %s", got.Reason)
	}
	if !strings.Contains(got.String(), "invalid") {
		t.Fatalf("String = %q", got.String())
	}
}

func TestUnsureThresholdApplied(t *testing.T) {
	model := forest.Train(trainingSet(t), forest.Config{Trees: 40, Subspace: 4, Seed: 9})
	id := NewIdentifier(model)
	// An out-of-catalogue algorithm: aggressive AIMD unlike any class.
	server := websim.Testbed("RENO")
	server.CustomAlgorithm = func() cc.Algorithm { return cc.NewHSTCP() }
	// (HSTCP through the RENO label does classify; instead check the
	// Unsure plumbing directly with a conflicted vector.)
	got := id.IdentifyResult(&probe.Result{
		TraceA: &trace.Trace{
			Env: "A", WmaxThreshold: 256, MSS: 536,
			Pre:      []int{4, 8, 16, 32, 64, 128, 256, 512},
			Post:     []int{0, 2, 4, 8, 16, 32, 64, 128, 300, 310, 315, 318, 319, 320, 321, 322, 323, 324},
			TimedOut: true,
		},
		Wmax:  256,
		MSS:   536,
		Valid: true,
	})
	if got.Label != LabelUnsure && got.Confidence < UnsureThreshold {
		t.Fatalf("low-confidence result not labeled UNSURE: %+v", got)
	}
	if got.Label == LabelUnsure && got.Confidence >= UnsureThreshold {
		t.Fatalf("UNSURE label with confidence %v", got.Confidence)
	}
	_ = server
}

func TestTrainingDeterminism(t *testing.T) {
	cfg := TrainingConfig{ConditionsPerPair: 2, Seed: 77, Algorithms: []string{"RENO", "BIC"}, WmaxValues: []int{256}}
	ds1, err := GenerateTrainingSet(netem.MeasuredDatabase(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	ds2, err := GenerateTrainingSet(netem.MeasuredDatabase(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ds1.Samples() {
		a, b := ds1.Samples()[i], ds2.Samples()[i]
		if a.Label != b.Label {
			t.Fatalf("labels differ at %d", i)
		}
		for d := range a.Features {
			if a.Features[d] != b.Features[d] {
				t.Fatalf("features differ at %d dim %d", i, d)
			}
		}
	}
}

// lossyDatabase returns a condition database whose sampled loss rate is
// always ~99%, so every gathering attempt fails.
func lossyDatabase() *netem.Database {
	rtt := stats.MustECDF([]stats.Anchor{{Value: 0.05, Cum: 0}, {Value: 0.051, Cum: 1}})
	stddev := stats.MustECDF([]stats.Anchor{{Value: 0, Cum: 0}, {Value: 0.001, Cum: 1}})
	loss := stats.MustECDF([]stats.Anchor{{Value: 0.99, Cum: 0}, {Value: 0.995, Cum: 1}})
	return netem.NewDatabase(rtt, stddev, loss)
}

func TestGenerateTrainingSetDropsFailedGatherings(t *testing.T) {
	// Under ~99% loss no trace pair is ever valid: the generator must
	// refuse to emit zero vectors under real labels (the old behaviour)
	// and instead report that nothing was gathered.
	ds, err := GenerateTrainingSet(lossyDatabase(), TrainingConfig{
		ConditionsPerPair: 2,
		Algorithms:        []string{"RENO", "BIC"},
		WmaxValues:        []int{64},
		Seed:              5,
	})
	if err == nil {
		for _, s := range ds.Samples() {
			zero := true
			for _, v := range s.Features {
				if v != 0 {
					zero = false
				}
			}
			if zero {
				t.Fatalf("zero feature vector leaked into the training set under label %s", s.Label)
			}
		}
		t.Fatalf("expected error from all-invalid gathering, got %d samples", ds.Len())
	}
}

// constantClassifier proves the identifier is decoupled from the forest:
// any classify.Classifier backend slots in.
type constantClassifier struct {
	label string
	conf  float64
}

func (c constantClassifier) Name() string                         { return "Constant" }
func (c constantClassifier) Classify([]float64) (string, float64) { return c.label, c.conf }

func TestIdentifierAcceptsAnyClassifier(t *testing.T) {
	id := NewIdentifier(constantClassifier{label: "BIC", conf: 0.8})
	got := id.Identify(websim.Testbed("RENO"), netem.Lossless, probe.Config{}, rand.New(rand.NewSource(10)))
	if !got.Valid {
		t.Fatalf("invalid: %s", got.Reason)
	}
	if got.Label != "BIC" || got.Confidence != 0.8 {
		t.Fatalf("got %s/%v, want the backend's constant answer BIC/0.8", got.Label, got.Confidence)
	}
	if id.Classifier().Name() != "Constant" {
		t.Fatalf("Classifier() = %s", id.Classifier().Name())
	}
}

func TestIdentifierUnsureWithLowConfidenceBackend(t *testing.T) {
	id := NewIdentifier(constantClassifier{label: "BIC", conf: 0.2})
	got := id.Identify(websim.Testbed("RENO"), netem.Lossless, probe.Config{}, rand.New(rand.NewSource(11)))
	if !got.Valid {
		t.Fatalf("invalid: %s", got.Reason)
	}
	if got.Label != LabelUnsure {
		t.Fatalf("got %s, want %s below the 40%% threshold", got.Label, LabelUnsure)
	}
}
