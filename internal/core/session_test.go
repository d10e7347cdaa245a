package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/classify"
	"repro/internal/forest"
	"repro/internal/netem"
	"repro/internal/probe"
	"repro/internal/websim"
	"repro/internal/xrand"
)

// stubClassifier keeps session tests independent of forest training.
type stubClassifier struct{}

func (stubClassifier) Name() string { return "stub" }
func (stubClassifier) Classify(features []float64) (string, float64) {
	if features[0] >= 0.6 { // feature.BetaA
		return "CUBICISH", 0.9
	}
	return "RENOISH", 0.8
}

var _ classify.Classifier = stubClassifier{}

// TestSessionMatchesIdentifier: a reused Session must reproduce the plain
// Identifier's results job for job -- across algorithms, lossy conditions,
// and repeated use of the same session (Rearm rewinds the clock, the
// recorders recycle trace buffers).
func TestSessionMatchesIdentifier(t *testing.T) {
	id := NewIdentifier(stubClassifier{})
	sess := id.NewSession()
	db := netem.MeasuredDatabase()
	condRng := rand.New(rand.NewSource(31))

	algs := []string{"CUBIC2", "RENO", "VEGAS", "WESTWOOD", "BIC", "ILLINOIS"}
	for i, alg := range algs {
		server := websim.Testbed(alg)
		cond := db.Sample(condRng)
		seed := int64(1000 + i)

		want := id.Identify(websim.Testbed(alg), cond, probe.Config{}, rand.New(rand.NewSource(seed)))
		got := sess.Identify(server, cond, probe.Config{}, rand.New(rand.NewSource(seed)))
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: session result %+v != identifier result %+v", alg, got, want)
		}
	}
}

// TestIdentifyEachMatchesFreshSession: every IdentifyEach result is bit
// for bit what a fresh Session returns for the job with xrand.New(seed)
// -- label, confidence, feature vector and wmax -- at any parallelism,
// so per-worker session reuse and RNG reseeding never show in a result.
func TestIdentifyEachMatchesFreshSession(t *testing.T) {
	id := NewIdentifier(forest.Train(trainingSet(t), forest.Config{Trees: 20, Subspace: 4, Seed: 51}))
	algs := []string{"RENO", "BIC", "CUBIC2", "VEGAS", "STCP", "HTCP", "ILLINOIS"}
	db := netem.MeasuredDatabase()
	condRng := rand.New(rand.NewSource(73))
	const n = 21
	conds := make([]netem.Condition, n)
	seeds := make([]int64, n)
	for i := range conds {
		conds[i], seeds[i] = db.Sample(condRng), int64(900+7*i)
	}
	want := make([]Identification, n)
	for i := range want {
		want[i] = id.NewSession().Identify(websim.Testbed(algs[i%len(algs)]), conds[i], probe.Config{}, xrand.New(seeds[i]))
	}
	for _, par := range []int{1, 4} {
		got := id.IdentifyEach(n, par, probe.Config{}, func(i int) (*websim.Server, netem.Condition, int64) {
			return websim.Testbed(algs[i%len(algs)]), conds[i], seeds[i]
		})
		if len(got) != n {
			t.Fatalf("parallelism %d: %d results, want %d", par, len(got), n)
		}
		for i := range got {
			g, w := got[i], want[i]
			if g.Label != w.Label || math.Float64bits(g.Confidence) != math.Float64bits(w.Confidence) || g.Wmax != w.Wmax ||
				g.Valid != w.Valid || g.Reason != w.Reason || g.Special != w.Special || g.Elapsed != w.Elapsed {
				t.Fatalf("parallelism %d, job %d: %+v, fresh session %+v", par, i, g, w)
			}
			for d := range g.Vector {
				if math.Float64bits(g.Vector[d]) != math.Float64bits(w.Vector[d]) {
					t.Fatalf("parallelism %d, job %d: feature %d is %v, fresh session %v", par, i, d, g.Vector[d], w.Vector[d])
				}
			}
		}
	}
}
