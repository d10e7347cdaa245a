// Package core assembles the CAAI pipeline, the paper's primary
// contribution: training-set generation on the emulated testbed (14
// algorithms x the probe budget's wmax ladder x 100 network conditions --
// 5600 feature vectors at the paper's four-rung ladder -- with RENO/CTCP
// merged into RC-small at small thresholds), random forest training, and
// the identifier that turns gathered traces into an algorithm label with
// the 40% confidence rule and the special trace shapes of Section VII-B.
// A model is served at the probe budget it was trained at: the
// identifier carries that budget and model files record it.
package core

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"
	"sort"
	"time"

	"repro/internal/cc"
	"repro/internal/classify"
	"repro/internal/engine"
	"repro/internal/feature"
	"repro/internal/forest"
	"repro/internal/netem"
	"repro/internal/probe"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/websim"
)

// Labels CAAI reports beyond the plain algorithm names.
const (
	// LabelRCSmall merges RENO, CTCP1 and CTCP2 gathered with wmax of 64
	// or 128 packets, where the three are indistinguishable.
	LabelRCSmall = "RC-SMALL"
	// LabelUnsure is reported when fewer than 40% of the trees agree.
	LabelUnsure = "UNSURE"
	// bigSuffix marks RENO/CTCP labels learned at wmax >= 256.
	bigSuffix = "-BIG"
)

// UnsureThreshold is the minimum random forest confidence.
const UnsureThreshold = 0.40

// rcSmallWmax is the largest wmax at which RENO and CTCP merge.
const rcSmallWmax = 128

// trainingMSS is the training segment size: the paper found MSS has no
// impact on feature vectors.
const trainingMSS = 536

// TrainingLabel maps an algorithm name and the gathering wmax to the class
// label used for training and reporting.
func TrainingLabel(algorithm string, wmax int) string {
	switch algorithm {
	case "RENO", "CTCP1", "CTCP2":
		if wmax <= rcSmallWmax {
			return LabelRCSmall
		}
		return algorithm + bigSuffix
	default:
		return algorithm
	}
}

// TrainingConfig controls training set generation.
type TrainingConfig struct {
	// ConditionsPerPair is how many random network conditions are
	// emulated per (algorithm, wmax) pair; the paper uses 100.
	ConditionsPerPair int
	// WmaxValues are the thresholds to train at; default the resolved
	// Probe budget's wmax ladder.
	WmaxValues []int
	// Algorithms defaults to all 14 registered algorithms.
	Algorithms []string
	// Seed drives all randomness deterministically.
	Seed int64
	// Parallelism bounds concurrent trace gathering; 0 = GOMAXPROCS.
	Parallelism int
	// Probe is the probe budget the training set is gathered at (zero
	// fields resolve to the served lean budget; probe.Paper is the
	// paper's). The trained model must be served at the same budget.
	Probe probe.Config
}

func (c TrainingConfig) withDefaults() TrainingConfig {
	if c.ConditionsPerPair <= 0 {
		c.ConditionsPerPair = 100
	}
	if len(c.WmaxValues) == 0 {
		c.WmaxValues = c.Probe.Resolved().WmaxLadder
	}
	if len(c.Algorithms) == 0 {
		c.Algorithms = cc.CAAINames()
	}
	return c
}

// gatherPair gathers one environment A + B trace pair from server at a
// fixed wmax and mss on p, which the caller armed with the network
// condition and RNG, and returns the feature vector extracted with sc.
// The bool reports whether environment A produced a valid trace.
func gatherPair(p *probe.Prober, sc *feature.Scratch, server *websim.Server, wmax, mss int) (feature.Vector, bool) {
	page := server.LongestPageBytes
	if page <= 0 {
		page = server.DefaultPageBytes
	}
	ta, err := p.GatherEnv(server, probe.EnvA(), wmax, mss, page)
	if err != nil || !ta.Valid() {
		return feature.Vector{}, false
	}
	tb, err := p.GatherEnv(server, probe.EnvB(), wmax, mss, page)
	if err != nil {
		return feature.Vector{}, false
	}
	if tb.TimedOut && !tb.Valid() {
		return feature.Vector{}, false
	}
	return feature.ExtractWith(sc, ta, tb), true
}

// gatherWorker is one pool worker's training-set gathering state, reused
// across the jobs it runs: a prober rearmed per attempt, feature scratch,
// and a math/rand RNG reseeded per job (Seed restarts exactly the stream
// rand.New(rand.NewSource(seed)) draws, so the training set stays
// bit-identical to one built with fresh probers and RNGs).
type gatherWorker struct {
	p   probe.Prober
	sc  feature.Scratch
	rng *rand.Rand
}

// GenerateTrainingSet emulates the paper's testbed data collection: for
// each (algorithm, wmax) pair it draws ConditionsPerPair network
// conditions from db and gathers one feature vector each. Invalid
// gatherings are retried with fresh conditions a few times; jobs that
// still fail are dropped rather than polluting the set with zero vectors
// under a real algorithm label. It errors when every job failed. Job j
// draws from its own seeded stream, so the set does not depend on which
// pool worker runs which job.
func GenerateTrainingSet(db *netem.Database, cfg TrainingConfig) (*forest.Dataset, error) {
	cfg = cfg.withDefaults()
	type job struct {
		alg  string
		wmax int
	}
	var jobs []job
	for _, alg := range cfg.Algorithms {
		for _, wmax := range cfg.WmaxValues {
			for i := 0; i < cfg.ConditionsPerPair; i++ {
				jobs = append(jobs, job{alg, wmax})
			}
		}
	}
	samples := make([]forest.Sample, len(jobs))
	valid := make([]bool, len(jobs))
	workers := make([]*gatherWorker, engine.Workers(len(jobs), cfg.Parallelism))
	for w := range workers {
		workers[w] = &gatherWorker{rng: rand.New(rand.NewSource(0))}
	}
	engine.RunWorkers(context.Background(), len(jobs), cfg.Parallelism, func(w, j int) {
		jb, wk := jobs[j], workers[w]
		wk.rng.Seed(cfg.Seed + int64(j)*1_000_003)
		var vec feature.Vector
		ok := false
		for attempt := 0; attempt < 8 && !ok; attempt++ {
			cond := db.Sample(wk.rng)
			wk.p.Rearm(cfg.Probe, cond, wk.rng)
			vec, ok = gatherPair(&wk.p, &wk.sc, websim.Testbed(jb.alg), jb.wmax, trainingMSS)
		}
		if !ok {
			return // leave valid[j] false: no vector was gathered
		}
		valid[j] = true
		samples[j] = forest.Sample{
			Features: vec.Slice(),
			Label:    TrainingLabel(jb.alg, jb.wmax),
		}
	})
	kept := samples[:0]
	have := map[string]bool{}
	for j, s := range samples {
		if valid[j] {
			kept = append(kept, s)
			have[s.Label] = true
		}
	}
	if len(kept) == 0 {
		return nil, fmt.Errorf("core: no valid training samples in %d gathering jobs", len(jobs))
	}
	// A label with zero valid samples would train a classifier that can
	// never predict it; surface the gap instead of shipping it silently.
	var missing []string
	seen := map[string]bool{}
	for _, alg := range cfg.Algorithms {
		for _, wmax := range cfg.WmaxValues {
			label := TrainingLabel(alg, wmax)
			if !have[label] && !seen[label] {
				seen[label] = true
				missing = append(missing, label)
			}
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return nil, fmt.Errorf("core: every gathering failed for labels %v (%d of %d jobs dropped)",
			missing, len(jobs)-len(kept), len(jobs))
	}
	return forest.NewDataset(kept)
}

// Identification is the outcome of identifying one Web server.
type Identification struct {
	// Label is the identified algorithm label (a training label,
	// LabelUnsure, or empty when the trace was invalid).
	Label string
	// Confidence is the random forest vote share.
	Confidence float64
	// Special is a non-None special trace shape, reported instead of a
	// classification.
	Special trace.Special
	// Vector is the extracted feature vector (zero for special traces).
	Vector feature.Vector
	// Wmax and MSS record the ladder values used.
	Wmax int
	MSS  int
	// Valid reports whether a valid trace pair was gathered.
	Valid bool
	// Reason explains invalid gatherings.
	Reason probe.InvalidReason
	// Elapsed is the simulated probing time.
	Elapsed time.Duration
	// Timings is the wall-clock per-stage span breakdown, stamped only by
	// pipelines with span recording enabled (Session.EnableTimings, or a
	// clock the caller armed for IdentifyResultWith); zero otherwise.
	// Unlike Elapsed -- which is simulated probe time -- these are real
	// host-clock durations.
	Timings telemetry.StageTimings
}

// String renders the identification outcome.
func (id Identification) String() string {
	switch {
	case !id.Valid:
		return fmt.Sprintf("invalid trace (%s)", id.Reason)
	case id.Special != trace.SpecialNone:
		return fmt.Sprintf("special trace: %s (wmax=%d)", id.Special, id.Wmax)
	default:
		return fmt.Sprintf("%s (confidence %.0f%%, wmax=%d, mss=%d)", id.Label, id.Confidence*100, id.Wmax, id.MSS)
	}
}

// Identifier classifies Web servers from gathered traces using any
// trained classifier backend (the paper's random forest by default),
// serving it at the probe budget its training set was gathered at. It is
// itself a classify.Classifier (its model's votes), so a pipeline handed
// an Identifier where it takes a classifier -- the passive flow engine --
// keeps the budget. Safe for concurrent use when the classifier is.
type Identifier struct {
	model classify.Classifier
	// budget is the resolved probe budget the model was trained at;
	// topWmax is its ladder's largest rung, the largest wmax the
	// training data covers.
	budget  probe.Config
	topWmax int
}

// NewIdentifier wraps a classifier trained at the default probe budget
// (a zero TrainingConfig.Probe). Wrapping an *Identifier returns it
// unchanged, budget included.
func NewIdentifier(c classify.Classifier) *Identifier {
	if id, ok := c.(*Identifier); ok {
		return id
	}
	return NewIdentifierAt(c, probe.Config{})
}

// NewIdentifierAt wraps a classifier trained at the given probe budget:
// its wmax ladder, pipelined requests and pre-timeout rounds, with zero
// fields resolved to their defaults.
func NewIdentifierAt(c classify.Classifier, budget probe.Config) *Identifier {
	b := probe.Config{WmaxLadder: budget.WmaxLadder, Requests: budget.Requests, MaxPreRounds: budget.MaxPreRounds}.Resolved()
	top := 0
	for _, w := range b.WmaxLadder {
		top = max(top, w)
	}
	return &Identifier{model: c, budget: b, topWmax: top}
}

// Classifier exposes the underlying model.
func (id *Identifier) Classifier() classify.Classifier { return id.model }

// Probe returns the probe budget the model was trained at, resolved: the
// configuration to probe with when serving it.
func (id *Identifier) Probe() probe.Config { return id.budget }

// Name reports the model's backend name.
func (id *Identifier) Name() string { return id.model.Name() }

// Classify returns the model's raw vote for a feature vector.
func (id *Identifier) Classify(features []float64) (string, float64) {
	return id.model.Classify(features)
}

// budgetFile is the probe budget as a model file records it.
type budgetFile struct {
	WmaxLadder   []int `json:"wmax_ladder"`
	Requests     int   `json:"requests"`
	MaxPreRounds int   `json:"max_pre_rounds"`
}

// SaveFile writes the model and its probe budget to path as a model file
// (see classify.Save).
func (id *Identifier) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	b := id.budget
	if err := classify.Save(f, id.model, budgetFile{WmaxLadder: b.WmaxLadder, Requests: b.Requests, MaxPreRounds: b.MaxPreRounds}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// load reads a model file written by SaveFile: the classifier, served at
// the probe budget the file records, or at probe.Paper when it records
// none (true of every file written before budgets were recorded).
func load(r io.Reader) (*Identifier, error) {
	var b budgetFile
	c, err := classify.Load(r, &b)
	if err != nil {
		return nil, err
	}
	if b.WmaxLadder == nil && b.Requests == 0 && b.MaxPreRounds == 0 {
		return NewIdentifierAt(c, probe.Paper), nil
	}
	return NewIdentifierAt(c, probe.Config{WmaxLadder: b.WmaxLadder, Requests: b.Requests, MaxPreRounds: b.MaxPreRounds}), nil
}

// LoadFile reads a model file written by SaveFile from path: the
// classifier, served at the probe budget the file records, or at
// probe.Paper when it records none (true of every file written before
// budgets were recorded).
func LoadFile(path string) (*Identifier, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return load(f)
}

// IdentifyResult classifies an already-gathered probe result.
func (id *Identifier) IdentifyResult(res *probe.Result) Identification {
	return id.IdentifyResultWith(new(feature.Scratch), new(telemetry.SpanClock), res)
}

// IdentifyResultWith is IdentifyResult for callers that classify many
// gathered results: sc is reusable feature scratch, and clock laps the
// feature and classify spans into the outcome's Timings (an unarmed
// clock records nothing). The passive pipeline classifies every flow
// pair through it.
func (id *Identifier) IdentifyResultWith(sc *feature.Scratch, clock *telemetry.SpanClock, res *probe.Result) Identification {
	out, need := id.prepare(res, sc)
	clock.Lap(&out.Timings, telemetry.StageFeature)
	if need {
		label, conf := id.model.Classify(out.Vector[:])
		applyLabel(&out, label, conf)
		clock.Lap(&out.Timings, telemetry.StageClassify)
	}
	return out
}

// prepare runs every pipeline stage before model inference -- validity,
// special-shape detection, feature extraction -- and reports whether the
// outcome still needs a classification, so span-recording paths can time
// feature extraction and the model call apart. A trace gathered above the
// model's top trained rung (a passive flow probed at a larger budget) is
// UNSURE without a vote: its wmax feature lies outside the training data.
func (id *Identifier) prepare(res *probe.Result, sc *feature.Scratch) (Identification, bool) {
	out := Identification{Wmax: res.Wmax, MSS: res.MSS, Reason: res.Reason}
	if !res.Valid {
		return out, false
	}
	out.Valid = true
	if sp := trace.DetectSpecial(res.TraceA); sp != trace.SpecialNone {
		out.Special = sp
		return out, false
	}
	out.Vector = feature.ExtractWith(sc, res.TraceA, res.TraceB)
	if res.Wmax > id.topWmax {
		out.Label = LabelUnsure
		return out, false
	}
	return out, true
}

// applyLabel finishes a prepared identification with the model's verdict,
// applying the paper's 40% Unsure rule.
func applyLabel(out *Identification, label string, conf float64) {
	out.Confidence = conf
	if conf < UnsureThreshold {
		out.Label = LabelUnsure
		return
	}
	out.Label = label
}

// Identify gathers traces from server under cond and classifies them: the
// full CAAI pipeline for one server, run on a fresh Session.
func (id *Identifier) Identify(server *websim.Server, cond netem.Condition, cfg probe.Config, rng *rand.Rand) Identification {
	return id.NewSession().Identify(server, cond, cfg, rng)
}
