package flow

import (
	"bytes"
	"math"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/pcapgen"
)

// goldenModelPath is the committed forest the eval golden fixtures pin;
// reusing it keeps the passive pipeline's expectations anchored to the
// same model without committing a second copy.
var goldenModelPath = filepath.Join("..", "eval", "testdata", "golden", "model.json")

func loadGoldenModel(t *testing.T) *core.Identifier {
	t.Helper()
	model, err := core.LoadFile(goldenModelPath)
	if err != nil {
		t.Fatalf("loading the committed golden model: %v", err)
	}
	return model
}

// TestRoundTripMatchesDirectPath is the acceptance property of the
// passive pipeline: for every registered CAAI algorithm, simulating a
// probe gathering, writing it as a pcap, decoding it, reconstructing the
// flows, and classifying them must agree with classifying the directly
// gathered traces -- on clean paths, bit for bit: same windows, same
// feature vector, same label and confidence.
func TestRoundTripMatchesDirectPath(t *testing.T) {
	model := loadGoldenModel(t)
	id := core.NewIdentifier(model)

	for i, alg := range cc.CAAINames() {
		alg := alg
		seed := int64(1000 + i)
		t.Run(alg, func(t *testing.T) {
			var buf bytes.Buffer
			results, err := pcapgen.Generate(&buf, []pcapgen.ServerSpec{{Algorithm: alg, Seed: seed}}, pcapgen.Options{})
			if err != nil {
				t.Fatal(err)
			}
			direct := id.IdentifyResult(results[0])
			if !direct.Valid {
				t.Fatalf("direct gathering invalid (%s); pick another seed", results[0].Reason)
			}

			pairs, stats, err := IdentifyCapture(bytes.NewReader(buf.Bytes()), model, IdentifyOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if len(pairs) != 1 {
				for _, p := range pairs {
					t.Logf("pair: A=%s B=%v id=%s", p.A, p.B, p.ID)
				}
				t.Fatalf("capture produced %d identifications, want 1 (stats %+v)", len(pairs), stats)
			}
			got := pairs[0].ID

			// The reconstructed traces must equal the direct ones window
			// for window.
			ta := pairs[0].A.Trace
			if !reflect.DeepEqual(ta.Pre, results[0].TraceA.Pre) || !reflect.DeepEqual(ta.Post, results[0].TraceA.Post) {
				t.Errorf("trace A drifted:\n got pre=%v post=%v\nwant pre=%v post=%v",
					ta.Pre, ta.Post, results[0].TraceA.Pre, results[0].TraceA.Post)
			}
			if pairs[0].B == nil {
				t.Fatalf("no companion flow was paired (stats %+v)", stats)
			}
			tb := pairs[0].B.Trace
			if !reflect.DeepEqual(tb.Pre, results[0].TraceB.Pre) || !reflect.DeepEqual(tb.Post, results[0].TraceB.Post) {
				t.Errorf("trace B drifted:\n got pre=%v post=%v\nwant pre=%v post=%v",
					tb.Pre, tb.Post, results[0].TraceB.Pre, results[0].TraceB.Post)
			}
			if ta.WmaxThreshold != results[0].Wmax {
				t.Errorf("wmax estimate %d, direct %d", ta.WmaxThreshold, results[0].Wmax)
			}
			if got.MSS != results[0].MSS {
				t.Errorf("mss %d, direct %d", got.MSS, results[0].MSS)
			}

			if got.Valid != direct.Valid || got.Label != direct.Label || got.Special != direct.Special {
				t.Fatalf("classification drifted:\n got %s\nwant %s", got, direct)
			}
			if math.Float64bits(got.Confidence) != math.Float64bits(direct.Confidence) {
				t.Errorf("confidence %v, direct %v", got.Confidence, direct.Confidence)
			}
			for f := 0; f < len(got.Vector); f++ {
				if math.Float64bits(got.Vector[f]) != math.Float64bits(direct.Vector[f]) {
					t.Errorf("feature %d: got %v, direct %v", f, got.Vector[f], direct.Vector[f])
				}
			}
		})
	}
}

// TestRoundTripPcapng runs one algorithm through the pcapng format to pin
// the second container end to end.
func TestRoundTripPcapng(t *testing.T) {
	model := loadGoldenModel(t)
	id := core.NewIdentifier(model)
	var buf bytes.Buffer
	results, err := pcapgen.Generate(&buf, []pcapgen.ServerSpec{{Algorithm: "CUBIC2", Seed: 7}},
		pcapgen.Options{Format: "pcapng"})
	if err != nil {
		t.Fatal(err)
	}
	pairs, _, err := IdentifyCapture(bytes.NewReader(buf.Bytes()), model, IdentifyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 1 {
		t.Fatalf("got %d identifications, want 1", len(pairs))
	}
	direct := id.IdentifyResult(results[0])
	if pairs[0].ID.Label != direct.Label {
		t.Fatalf("pcapng label %q, direct %q", pairs[0].ID.Label, direct.Label)
	}
}

// TestMultiServerCapture ingests one capture holding several servers'
// probe flows and expects one identification per server.
func TestMultiServerCapture(t *testing.T) {
	model := loadGoldenModel(t)
	specs := []pcapgen.ServerSpec{
		{Algorithm: "RENO", Seed: 11},
		{Algorithm: "CUBIC2", Seed: 12},
		{Algorithm: "VEGAS", Seed: 13},
	}
	var buf bytes.Buffer
	results, err := pcapgen.Generate(&buf, specs, pcapgen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	id := core.NewIdentifier(model)
	pairs, stats, err := IdentifyCapture(bytes.NewReader(buf.Bytes()), model, IdentifyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != len(specs) {
		t.Fatalf("got %d identifications, want %d (stats %+v)", len(pairs), len(specs), stats)
	}
	byServer := map[string]core.Identification{}
	for _, p := range pairs {
		byServer[p.A.Server] = p.ID
	}
	if len(byServer) != len(specs) {
		t.Fatalf("identifications cover %d servers, want %d", len(byServer), len(specs))
	}
	for i := range specs {
		direct := id.IdentifyResult(results[i])
		found := false
		for _, got := range byServer {
			if got.Label == direct.Label && got.Valid == direct.Valid {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no capture identification matched direct %s for %s", direct, specs[i].Algorithm)
		}
	}
}
