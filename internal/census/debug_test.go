package census

import (
	"testing"

	"repro/internal/core"
	"repro/internal/forest"
	"repro/internal/netem"
)

// TestDebugSmallCensus runs a reduced census end to end; inspect with -v.
func TestDebugSmallCensus(t *testing.T) {
	if testing.Short() {
		t.Skip("expensive")
	}
	db := netem.MeasuredDatabase()
	ds, err := core.GenerateTrainingSet(db, core.TrainingConfig{ConditionsPerPair: 15, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	model := forest.Train(ds, forest.Config{Seed: 7})
	id := core.NewIdentifier(model)

	cfg := DefaultPopulationConfig()
	cfg.Servers = 600
	pop := GeneratePopulation(cfg)
	report := Run(pop, id, db, 99)
	t.Logf("\n%s", report.TableIV())
	t.Logf("ground-truth accuracy on valid ordinary traces: %.2f%%", report.Accuracy()*100)
}
