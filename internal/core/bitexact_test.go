package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"testing"
	"time"

	"repro/internal/cc"
	"repro/internal/forest"
	"repro/internal/netem"
	"repro/internal/probe"
	"repro/internal/websim"
	"repro/internal/xrand"
)

// Digests of the probe pipeline's exact outputs. They were generated
// before the per-packet hot path (netem.Path.Drop, the HSTCP response
// function, the probe loops) was optimised, and every rewrite of that path
// must reproduce them bit for bit. Regenerate them only for a deliberate
// behaviour change, never to absorb a float or RNG-stream drift.
const (
	wantTrainingDigest = "8682c4bd348e1257cfffc327d9d5cb94db01f8700259d286c1a000a5c0e909e3"
	wantIdentifyDigest = "516fe4ce8a5a5ce4808f7e68d096b0b3995cf14aeb4acb5d2b3e82cb5d8f1488"
)

// bitExactSpecsPerAlg is how many measured-database conditions each of the
// 14 algorithms is identified under.
const bitExactSpecsPerAlg = 32

// digestFloat writes f's exact bit pattern.
func digestFloat(h hash.Hash, f float64) {
	fmt.Fprintf(h, "%016x,", math.Float64bits(f))
}

// TestProbePipelineBitExact pins the training set and a stream of
// Session.Identify results to checked-in digests. The eval goldens replay
// one 50 ms / 1% loss condition; this covers the measured database's
// spread as well: lossless paths, RTTs near a second, and HSTCP above its
// 38-packet low window, where a(w) and b(w) are live. Traces count whole
// segments, so a last-bit float change that never moves a window passes
// here; the per-function equality tests (TestHSTCPMatchesClosedForm, the
// netem reference-draw tests) catch those.
func TestProbePipelineBitExact(t *testing.T) {
	ds, err := GenerateTrainingSet(netem.MeasuredDatabase(), TrainingConfig{ConditionsPerPair: 12, Seed: 2011})
	if err != nil {
		t.Fatal(err)
	}
	th := sha256.New()
	for _, s := range ds.Samples() {
		fmt.Fprintf(th, "%s:", s.Label)
		for _, f := range s.Features {
			digestFloat(th, f)
		}
		fmt.Fprintln(th)
	}
	if got := hex.EncodeToString(th.Sum(nil)); got != wantTrainingDigest {
		t.Errorf("training set digest = %s, want %s", got, wantTrainingDigest)
	}

	model := forest.Train(ds, forest.Config{Trees: 40, Subspace: 4, Seed: 2011})
	sess := NewIdentifier(model).NewSession()
	db := netem.MeasuredDatabase()
	algs := cc.CAAINames()
	ih := sha256.New()
	var lossless, slow, hstcpLarge int
	for i := 0; i < bitExactSpecsPerAlg*len(algs); i++ {
		alg := algs[i%len(algs)]
		rng := xrand.New(int64(i)*1_000_003 + 7)
		cond := db.Sample(rng)
		out := sess.Identify(websim.Testbed(alg), cond, probe.Config{}, rng)
		fmt.Fprintf(ih, "%s|%s|%t|%q|%d|%d|%q|%d|", alg, out.Label, out.Valid, out.Reason, out.Wmax, out.MSS, out.Special, out.Elapsed)
		digestFloat(ih, out.Confidence)
		for _, f := range out.Vector {
			digestFloat(ih, f)
		}
		fmt.Fprintln(ih)

		if cond.LossRate == 0 {
			lossless++
		}
		if cond.MeanRTT >= 500*time.Millisecond {
			slow++
		}
		if alg == "HSTCP" && out.Valid && out.Wmax >= 256 {
			hstcpLarge++
		}
	}
	if got := hex.EncodeToString(ih.Sum(nil)); got != wantIdentifyDigest {
		t.Errorf("identification digest = %s, want %s", got, wantIdentifyDigest)
	}
	if lossless == 0 || slow == 0 || hstcpLarge == 0 {
		t.Errorf("coverage gap: %d lossless paths, %d paths with RTT >= 500ms, %d valid HSTCP identifications at wmax >= 256; want each > 0",
			lossless, slow, hstcpLarge)
	}
}
