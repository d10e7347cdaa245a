package flow

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/forest"
	"repro/internal/netem"
	"repro/internal/pcapgen"
	"repro/internal/probe"
)

// TestForeignBudgetAnswersUnsure: a capture of a prober running the
// paper's budget holds flows timed out at wmax 512. A model trained at the
// served budget never saw that rung -- its wmax feature lies outside the
// training data, and made to vote it labels STCP at 512 as BIC -- so
// those flows must come back UNSURE rather than as a confident label. The estimator snaps to the paper's full ladder, so the
// flows keep their true wmax.
func TestForeignBudgetAnswersUnsure(t *testing.T) {
	ds, err := core.GenerateTrainingSet(netem.MeasuredDatabase(), core.TrainingConfig{ConditionsPerPair: 6, Seed: 991})
	if err != nil {
		t.Fatal(err)
	}
	model := forest.Train(ds, forest.Config{Trees: 20, Subspace: 4, Seed: 992})

	algs := []string{"HSTCP", "STCP", "YEAH"}
	specs := make([]pcapgen.ServerSpec, len(algs))
	for i, alg := range algs {
		specs[i] = pcapgen.ServerSpec{Algorithm: alg, Seed: int64(31 + i)}
	}
	var buf bytes.Buffer
	direct, err := pcapgen.Generate(&buf, specs, pcapgen.Options{Probe: probe.Paper})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range direct {
		if !r.Valid || r.Wmax != 512 {
			t.Fatalf("%s: paper-budget gathering valid=%v at wmax %d, want a valid trace at 512", algs[i], r.Valid, r.Wmax)
		}
	}

	pairs, _, err := IdentifyCapture(bytes.NewReader(buf.Bytes()), model, IdentifyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	valid := 0
	for _, p := range pairs {
		if !p.ID.Valid {
			continue
		}
		valid++
		if p.ID.Wmax != 512 {
			t.Errorf("%s: flow wmax estimated %d, want 512 (the paper ladder's rung)", p.A, p.ID.Wmax)
		}
		if p.ID.Label != core.LabelUnsure {
			t.Errorf("%s: labeled %s at wmax %d, above the model's top trained rung; want %s", p.A, p.ID, p.ID.Wmax, core.LabelUnsure)
		}
	}
	if valid != len(algs) {
		t.Fatalf("%d valid flow pairs, want %d", valid, len(algs))
	}

	// Made to vote anyway (taken as trained at the paper budget), the same
	// model answers some of them with a confident wrong label: the hazard
	// the UNSURE rule removes.
	paperServed := core.NewIdentifierAt(model, probe.Paper)
	wrong := 0
	for i, r := range direct {
		got := paperServed.IdentifyResult(r)
		if got.Label != core.LabelUnsure && got.Label != core.TrainingLabel(algs[i], r.Wmax) {
			wrong++
		}
	}
	if wrong == 0 {
		t.Error("the served-budget model voted right on every wmax-512 flow; the test no longer shows the hazard")
	}
}
