package eval

import (
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/cc"
	"repro/internal/classify"
	"repro/internal/core"
	"repro/internal/feature"
	"repro/internal/forest"
	"repro/internal/netem"
	"repro/internal/probe"
	"repro/internal/trace"
	"repro/internal/websim"
	"repro/internal/xrand"
)

// -update regenerates the golden fixtures:
//
//	go test ./internal/eval -run TestGolden -update
//
// Do this only when a deliberate pipeline change invalidates them, and
// say so in the commit.
var update = flag.Bool("update", false, "regenerate golden fixtures")

const (
	goldenDir       = "testdata/golden"
	goldenTraces    = "traces.json"
	goldenModelFile = "model.json"
)

// goldenCondition is the pinned network condition of every fixture: mild
// jitter and loss, so the RNG-consuming paths (jitter draws, drop draws)
// are all exercised and any change to their draw order shifts the traces.
func goldenCondition() netem.Condition {
	return netem.Condition{
		MeanRTT:   50 * time.Millisecond,
		RTTStdDev: 3 * time.Millisecond,
		LossRate:  0.01,
	}
}

// goldenTrace is the serialized form of one trace.
type goldenTrace struct {
	Pre           []int `json:"pre"`
	Post          []int `json:"post"`
	TimedOut      bool  `json:"timed_out"`
	DataExhausted bool  `json:"data_exhausted,omitempty"`
	WmaxThreshold int   `json:"wmax_threshold"`
	MSS           int   `json:"mss"`
}

func toGoldenTrace(t *trace.Trace) goldenTrace {
	return goldenTrace{
		Pre:           append([]int{}, t.Pre...),
		Post:          append([]int{}, t.Post...),
		TimedOut:      t.TimedOut,
		DataExhausted: t.DataExhausted,
		WmaxThreshold: t.WmaxThreshold,
		MSS:           t.MSS,
	}
}

// goldenFixture pins the full pipeline for one algorithm: the gathered
// trace pair, the extracted feature vector, and the committed model's
// classification — all bit-exact.
type goldenFixture struct {
	Algorithm  string      `json:"algorithm"`
	Seed       int64       `json:"seed"`
	Wmax       int         `json:"wmax"`
	MSS        int         `json:"mss"`
	TraceA     goldenTrace `json:"trace_a"`
	TraceB     goldenTrace `json:"trace_b"`
	Vector     []float64   `json:"vector"`
	Label      string      `json:"label"`
	Confidence float64     `json:"confidence"`
}

type goldenFile struct {
	Description string          `json:"description"`
	Condition   string          `json:"condition"`
	Fixtures    []goldenFixture `json:"fixtures"`
}

// gatherGolden runs the real prober at the paper's budget (the budget the
// committed fixtures and model were made at) for one algorithm at its
// pinned seed.
func gatherGolden(alg string, seed int64) *probe.Result {
	p := probe.New(probe.Paper, goldenCondition(), xrand.New(seed))
	return p.Gather(websim.Testbed(alg))
}

// goldenSeed pins each algorithm's probe seed by its position in the
// sorted CAAI name list.
func goldenSeed(i int) int64 { return 4242 + int64(i)*7919 }

// trainGoldenModel trains the small committed forest (deterministic, a
// few seconds at this scale).
func trainGoldenModel(t *testing.T) classify.Classifier {
	t.Helper()
	ds, err := core.GenerateTrainingSet(netem.MeasuredDatabase(), core.TrainingConfig{
		ConditionsPerPair: 6,
		Seed:              991,
		Probe:             probe.Paper,
	})
	if err != nil {
		t.Fatal(err)
	}
	return forest.Train(ds, forest.Config{Trees: 20, Subspace: 4, Seed: 992})
}

// TestGoldenTraces asserts the probe -> feature -> forest pipeline is
// bit-stable against the committed fixtures: trace gathering reproduces
// the recorded window traces exactly, feature extraction reproduces the
// recorded vectors bit for bit, and the committed model file classifies
// them to the recorded labels and confidences. This is the guard rail for
// arena/scratch refactors like PR 3: any change that moves a single RNG
// draw, window sample, float operation, or tree walk fails here first,
// loudly, instead of silently shifting accuracy.
func TestGoldenTraces(t *testing.T) {
	names := cc.CAAINames()

	if *update {
		model := trainGoldenModel(t)
		if err := os.MkdirAll(goldenDir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := core.NewIdentifierAt(model, probe.Paper).SaveFile(filepath.Join(goldenDir, goldenModelFile)); err != nil {
			t.Fatal(err)
		}
		file := goldenFile{
			Description: "bit-stability fixtures: probe traces, feature vectors, and committed-model classifications per CAAI algorithm",
			Condition:   goldenCondition().String(),
		}
		for i, alg := range names {
			res := gatherGolden(alg, goldenSeed(i))
			if !res.Valid {
				t.Fatalf("golden gathering for %s is invalid (%s); pick another seed", alg, res.Reason)
			}
			vec := feature.Extract(res.TraceA, res.TraceB)
			label, conf := model.Classify(vec.Slice())
			file.Fixtures = append(file.Fixtures, goldenFixture{
				Algorithm:  alg,
				Seed:       goldenSeed(i),
				Wmax:       res.Wmax,
				MSS:        res.MSS,
				TraceA:     toGoldenTrace(res.TraceA),
				TraceB:     toGoldenTrace(res.TraceB),
				Vector:     vec.Slice(),
				Label:      label,
				Confidence: conf,
			})
		}
		data, err := json.MarshalIndent(file, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(goldenDir, goldenTraces), append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s (%d fixtures) and %s", goldenTraces, len(file.Fixtures), goldenModelFile)
		return
	}

	data, err := os.ReadFile(filepath.Join(goldenDir, goldenTraces))
	if err != nil {
		t.Fatalf("golden fixtures missing (run with -update to create them): %v", err)
	}
	var file goldenFile
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	if len(file.Fixtures) != len(names) {
		t.Fatalf("fixtures cover %d algorithms, registry has %d CAAI targets — regenerate with -update",
			len(file.Fixtures), len(names))
	}
	model, err := core.LoadFile(filepath.Join(goldenDir, goldenModelFile))
	if err != nil {
		t.Fatal(err)
	}

	for _, fx := range file.Fixtures {
		fx := fx
		t.Run(fx.Algorithm, func(t *testing.T) {
			res := gatherGolden(fx.Algorithm, fx.Seed)
			if !res.Valid {
				t.Fatalf("gathering went invalid: %s", res.Reason)
			}
			if res.Wmax != fx.Wmax || res.MSS != fx.MSS {
				t.Fatalf("ladder settled at wmax=%d mss=%d, fixture has wmax=%d mss=%d",
					res.Wmax, res.MSS, fx.Wmax, fx.MSS)
			}
			if got := toGoldenTrace(res.TraceA); !reflect.DeepEqual(got, fx.TraceA) {
				t.Fatalf("trace A drifted:\n got %+v\nwant %+v", got, fx.TraceA)
			}
			if got := toGoldenTrace(res.TraceB); !reflect.DeepEqual(got, fx.TraceB) {
				t.Fatalf("trace B drifted:\n got %+v\nwant %+v", got, fx.TraceB)
			}

			vec := feature.Extract(res.TraceA, res.TraceB)
			if len(fx.Vector) != feature.NumFeatures {
				t.Fatalf("fixture vector has %d elements", len(fx.Vector))
			}
			for i, want := range fx.Vector {
				if math.Float64bits(vec[i]) != math.Float64bits(want) {
					t.Fatalf("feature %d drifted: got %v (%#x), want %v (%#x)",
						i, vec[i], math.Float64bits(vec[i]), want, math.Float64bits(want))
				}
			}

			label, conf := model.Classify(vec.Slice())
			if label != fx.Label {
				t.Fatalf("classification drifted: got %s, want %s", label, fx.Label)
			}
			if math.Float64bits(conf) != math.Float64bits(fx.Confidence) {
				t.Fatalf("confidence drifted: got %v, want %v", conf, fx.Confidence)
			}
		})
	}
}
