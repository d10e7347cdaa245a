// Package experiments regenerates every table and figure of the paper's
// evaluation: one entry point per exhibit, each returning a result that
// renders as text. The cmd/caai-figures binary and the repository's
// benchmark harness both drive this package; EXPERIMENTS.md records the
// outputs next to the paper's numbers.
package experiments

import (
	"math/rand"
	"sync"

	"repro/internal/classify"
	"repro/internal/core"
	"repro/internal/forest"
	"repro/internal/netem"
)

// Context carries the shared inputs and scale knobs of all experiments.
// The zero value is not usable; call NewContext.
type Context struct {
	// DB is the network condition database (Figs. 4/10/11).
	DB *netem.Database
	// TrainingConditions is the per-(algorithm, wmax) condition count;
	// the paper uses 100. Reduce for quick runs.
	TrainingConditions int
	// CensusServers is the census population size; the paper measured
	// 63124. Reduce for quick runs.
	CensusServers int
	// Folds is the cross-validation fold count (paper: 10).
	Folds int
	// Seed drives all randomness.
	Seed int64

	mu      sync.Mutex
	dataset *forest.Dataset
	model   classify.Classifier
}

// NewContext returns a context with the paper's full-scale defaults.
func NewContext() *Context {
	return &Context{
		DB:                 netem.MeasuredDatabase(),
		TrainingConditions: 100,
		CensusServers:      63124,
		Folds:              10,
		Seed:               2011,
	}
}

// NewQuickContext returns a reduced-scale context suitable for tests and
// benchmarks.
func NewQuickContext() *Context {
	ctx := NewContext()
	ctx.TrainingConditions = 12
	ctx.CensusServers = 400
	ctx.Folds = 5
	return ctx
}

// TrainingSet lazily generates (and caches) the training set.
func (ctx *Context) TrainingSet() (*forest.Dataset, error) {
	ctx.mu.Lock()
	defer ctx.mu.Unlock()
	if ctx.dataset != nil {
		return ctx.dataset, nil
	}
	ds, err := core.GenerateTrainingSet(ctx.DB, core.TrainingConfig{
		ConditionsPerPair: ctx.TrainingConditions,
		Seed:              ctx.Seed,
	})
	if err != nil {
		return nil, err
	}
	ctx.dataset = ds
	return ds, nil
}

// Model lazily trains (and caches) the paper-parameter random forest
// (K=80, F=4), unless UseModel injected a pretrained classifier first.
func (ctx *Context) Model() (classify.Classifier, error) {
	ctx.mu.Lock()
	if ctx.model != nil {
		defer ctx.mu.Unlock()
		return ctx.model, nil
	}
	ctx.mu.Unlock()
	ds, err := ctx.TrainingSet()
	if err != nil {
		return nil, err
	}
	ctx.mu.Lock()
	defer ctx.mu.Unlock()
	if ctx.model == nil {
		ctx.model = forest.Train(ds, forest.Config{Trees: 80, Subspace: 4, Seed: ctx.Seed + 1})
	}
	return ctx.model, nil
}

// UseModel injects a pretrained classifier (e.g. one loaded from disk with
// core.LoadFile, which carries its probe budget), so experiments that only
// classify skip the expensive training-set generation and model training
// entirely.
func (ctx *Context) UseModel(c classify.Classifier) {
	ctx.mu.Lock()
	defer ctx.mu.Unlock()
	ctx.model = c
}

// rng derives a deterministic RNG for one experiment.
func (ctx *Context) rng(salt int64) *rand.Rand {
	return rand.New(rand.NewSource(ctx.Seed ^ (salt * 0x7F4A7C15_9E37_79B9)))
}
