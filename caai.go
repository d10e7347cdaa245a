// Package caai is a from-scratch reproduction of "TCP Congestion Avoidance
// Algorithm Identification" (Yang, Shao, Luo, Xu, Deogun, Lu -- ICDCS 2011
// / IEEE/ACM ToN 2014): an active measurement tool that identifies which
// TCP congestion avoidance algorithm a remote Web server runs, together
// with the simulated Internet it is evaluated against.
//
// The package is a facade over the building blocks in internal/:
//
//   - internal/cc: the 14 congestion avoidance algorithms (RENO, BIC,
//     CTCP1/2, CUBIC1/2, HSTCP, HTCP, ILLINOIS, STCP, VEGAS, VENO,
//     WESTWOOD+, YEAH) ported from the Linux kernel / CTCP paper.
//   - internal/tcpsim + internal/websim: the simulated Web servers.
//   - internal/probe: CAAI step 1 (trace gathering in emulated network
//     environments A and B).
//   - internal/feature: CAAI step 2 (feature extraction).
//   - internal/classify: the pluggable classifier abstraction of CAAI
//     step 3, plus model persistence (save a trained model once, load it
//     everywhere).
//   - internal/forest: the paper's random forest backend.
//   - internal/ml: the Weka-comparison backends (kNN, naive Bayes,
//     decision tree, neural net, linear SVM), all behind the same
//     Classifier interface.
//   - internal/engine: the bounded worker-pool execution layer used for
//     training-set generation, batched identification, and the census.
//   - internal/service: identification-as-a-service -- the HTTP/JSON API
//     behind cmd/caai-serve, with an async job queue, a hot-swappable
//     model registry, and an LRU result cache.
//   - internal/census: the 63 124-server measurement study.
//
// Quick start (train, identify one server):
//
//	id, err := caai.Train(caai.TrainingOptions{ConditionsPerPair: 25})
//	if err != nil { ... }
//	server := caai.NewTestbedServer("CUBIC2")
//	rng := rand.New(rand.NewSource(1))
//	result := id.Identify(server, caai.LosslessCondition(), rng)
//	fmt.Println(result) // CUBIC2 (confidence 98%, wmax=256, mss=100)
//
// Train once, identify many (the production flow):
//
//	id, _ := caai.Train(caai.TrainingOptions{ConditionsPerPair: 100})
//	_ = id.SaveModel("caai-model.json")
//	...
//	id, _ = caai.LoadModel("caai-model.json") // no retraining
//	jobs := []caai.BatchJob{{Server: s1, Cond: c1}, {Server: s2, Cond: c2}}
//	for i, r := range id.IdentifyBatch(jobs, caai.BatchOptions{}) {
//		fmt.Println(jobs[i].Server.Name, r)
//	}
//
// Alternative classifier backends (the paper's Weka comparison):
//
//	id, _ := caai.TrainWithClassifier(caai.TrainingOptions{}, "knn")
//
// Serving identifications over HTTP (the resident-service flow): train
// and save a model as above, then run cmd/caai-serve against it -- it
// loads models once, answers POST /v1/identify and async POST /v1/batch
// jobs, hot-swaps retrained model files via POST /v1/models/reload, and
// caches repeated identifications. See the README's "Serving
// identifications" section for the HTTP API.
package caai

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"time"

	"repro/internal/cc"
	"repro/internal/classify"
	"repro/internal/core"
	"repro/internal/feature"
	"repro/internal/flow"
	"repro/internal/forest"
	"repro/internal/ml"
	"repro/internal/netem"
	"repro/internal/probe"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/websim"
)

// Re-exported result and configuration types. (Aliases keep the in-module
// examples and tools on one import path.)
type (
	// Server is a simulated Web server (see NewTestbedServer).
	Server = websim.Server
	// Condition is a network condition between prober and server.
	Condition = netem.Condition
	// Identification is the outcome of identifying one server.
	Identification = core.Identification
	// Vector is the extracted feature vector.
	Vector = feature.Vector
	// Trace is a gathered window trace.
	Trace = trace.Trace
	// ProbeConfig tunes trace gathering (zero fields resolve to the
	// served lean budget, not the paper's).
	ProbeConfig = probe.Config
	// Algorithm is the congestion avoidance extension point: implement
	// it to fingerprint your own algorithm (see examples/customcc).
	Algorithm = cc.Algorithm
	// Conn is the congestion state an Algorithm manipulates.
	Conn = cc.Conn
	// Classifier is the pluggable classification backend interface; any
	// implementation can drive the pipeline (see TrainWithClassifier).
	Classifier = classify.Classifier
	// FlowIdentification is the classification of one captured flow pair
	// (see Identifier.IdentifyCapture).
	FlowIdentification = flow.FlowIdentification
	// CaptureStats summarizes one ingested packet capture.
	CaptureStats = flow.CaptureStats
	// CaptureOptions tunes capture ingestion (tracker bounds, optional
	// per-stage span recording).
	CaptureOptions = flow.IdentifyOptions
	// StreamOptions tunes Identifier.IdentifyStream (tracker bounds and
	// optional live metrics).
	StreamOptions = flow.StreamConfig
	// StageTimings is one identification's per-stage wall-clock span
	// breakdown (see Identification.Timings and IdentifyTimed); index it
	// with the Stage* constants.
	StageTimings = telemetry.StageTimings
	// Stage indexes a StageTimings entry.
	Stage = telemetry.Stage
)

// Pipeline stages re-exported for StageTimings consumers.
const (
	StageQueueWait = telemetry.StageQueueWait
	StageGather    = telemetry.StageGather
	StageFeature   = telemetry.StageFeature
	StageClassify  = telemetry.StageClassify
	StageCache     = telemetry.StageCache
	NumStages      = telemetry.NumStages
)

// Labels re-exported from the pipeline.
const (
	// LabelUnsure is reported below the 40% confidence threshold.
	LabelUnsure = core.LabelUnsure
	// LabelRCSmall merges RENO/CTCP at small wmax thresholds.
	LabelRCSmall = core.LabelRCSmall
)

// TrainingOptions configures Train.
type TrainingOptions struct {
	// ConditionsPerPair is the number of emulated network conditions
	// per (algorithm, wmax) pair; the paper uses 100 (5600 vectors).
	ConditionsPerPair int
	// Trees and Subspace are the random forest parameters K and F
	// (paper: 80 and 4), honored by Train and TrainWithClassifier's
	// forest backend; the non-forest backends ignore them.
	Trees    int
	Subspace int
	// Seed makes training deterministic.
	Seed int64
	// Parallelism bounds concurrent trace gathering on the worker pool;
	// 0 uses all CPUs.
	Parallelism int
}

// Identifier is a trained CAAI instance, served at the probe budget its
// model was trained at. Safe for concurrent use.
type Identifier struct {
	core    *core.Identifier
	model   classify.Classifier
	dataset *forest.Dataset
}

// Train builds the training set on the emulated testbed and trains the
// paper's random forest, returning a ready-to-use identifier.
func Train(opts TrainingOptions) (*Identifier, error) {
	ds, err := generateTrainingSet(opts)
	if err != nil {
		return nil, err
	}
	model := forest.Train(ds, forest.Config{
		Trees:    opts.Trees,
		Subspace: opts.Subspace,
		Seed:     opts.Seed + 1,
	})
	return newIdentifier(core.NewIdentifier(model), ds), nil
}

// TrainWithClassifier is Train with a pluggable backend: "randomforest"
// (the paper's choice), "knn", "naivebayes", "decisiontree", "neuralnet",
// or "linearsvm" (short aliases like "forest", "bayes", "tree", "mlp",
// "svm" also work). Only the random forest backend supports SaveModel.
func TrainWithClassifier(opts TrainingOptions, backend string) (*Identifier, error) {
	ds, err := generateTrainingSet(opts)
	if err != nil {
		return nil, err
	}
	model, err := ml.NewByName(backend, ds, ml.Params{
		Seed:     opts.Seed + 1,
		Trees:    opts.Trees,
		Subspace: opts.Subspace,
	})
	if err != nil {
		return nil, err
	}
	return newIdentifier(core.NewIdentifier(model), ds), nil
}

// ClassifierBackends lists the backend names TrainWithClassifier accepts.
func ClassifierBackends() []string { return ml.Backends() }

func generateTrainingSet(opts TrainingOptions) (*forest.Dataset, error) {
	return core.GenerateTrainingSet(netem.MeasuredDatabase(), core.TrainingConfig{
		ConditionsPerPair: opts.ConditionsPerPair,
		Seed:              opts.Seed,
		Parallelism:       opts.Parallelism,
	})
}

func newIdentifier(c *core.Identifier, ds *forest.Dataset) *Identifier {
	return &Identifier{core: c, model: c.Classifier(), dataset: ds}
}

// Identify runs the full CAAI pipeline against server under cond: ladder
// probing in environments A and B at the model's budget, feature
// extraction, special-case detection, and classification with the Unsure
// rule.
func (id *Identifier) Identify(server *Server, cond Condition, rng *rand.Rand) Identification {
	return id.core.Identify(server, cond, id.core.Probe(), rng)
}

// Probe returns the probe budget the model was trained at, resolved: the
// budget Identify and IdentifyBatch probe with.
func (id *Identifier) Probe() ProbeConfig { return id.core.Probe() }

// IdentifyWithConfig is Identify with a custom probe configuration. A
// trace gathered above the model's top trained wmax comes back UNSURE.
func (id *Identifier) IdentifyWithConfig(server *Server, cond Condition, cfg ProbeConfig, rng *rand.Rand) Identification {
	return id.core.Identify(server, cond, cfg, rng)
}

// IdentifyTimed is Identify with per-stage span recording: the returned
// Identification's Timings carries the gather / feature / classify
// wall-clock breakdown (see cmd/caai-probe -timings). Results are
// otherwise identical to Identify.
func (id *Identifier) IdentifyTimed(server *Server, cond Condition, cfg ProbeConfig, rng *rand.Rand) Identification {
	sess := id.core.NewSession()
	sess.EnableTimings(nil)
	return sess.Identify(server, cond, cfg, rng)
}

// BatchJob is one (server, condition) identification request for
// IdentifyBatch. A zero Seed derives a per-job seed deterministically.
type BatchJob struct {
	Server *Server
	Cond   Condition
	Seed   int64
}

// BatchOptions tunes IdentifyBatch.
type BatchOptions struct {
	// Parallelism bounds concurrent probes; 0 uses all CPUs.
	Parallelism int
	// Probe is the probe budget; the zero config probes at the model's.
	Probe ProbeConfig
	// Seed derives the seeds of jobs that leave BatchJob.Seed zero.
	Seed int64
}

// jobSeedStride spaces derived per-job seeds (a prime, so neighbouring
// jobs never share RNG streams).
const jobSeedStride = 15485863

// IdentifyBatch probes every job on a bounded worker pool and returns the
// identifications in job order. Results are deterministic for a fixed
// (jobs, opts.Seed) regardless of opts.Parallelism. Each pool worker
// runs a reusable session that recycles probe and feature scratch across
// its jobs.
func (id *Identifier) IdentifyBatch(jobs []BatchJob, opts BatchOptions) []Identification {
	if reflect.ValueOf(opts.Probe).IsZero() {
		opts.Probe = id.core.Probe()
	}
	return id.core.IdentifyEach(len(jobs), opts.Parallelism, opts.Probe, func(i int) (*Server, Condition, int64) {
		seed := jobs[i].Seed
		if seed == 0 {
			seed = opts.Seed + int64(i+1)*jobSeedStride
		}
		return jobs[i].Server, jobs[i].Cond, seed
	})
}

// IdentifyCapture runs the passive pipeline against a pcap or pcapng
// stream: decode, per-flow TCP reassembly and congestion-window
// reconstruction, environment pairing, and classification -- the
// capture-ingestion counterpart of Identify for traffic that was recorded
// rather than probed. It is IdentifyStream's engine with idle expiry
// off, its results sorted into capture order at the end. The stream is
// decoded incrementally in bounded memory. See cmd/caai-pcap for the
// command-line front end and the service's POST /v1/pcap for the HTTP
// one.
func (id *Identifier) IdentifyCapture(r io.Reader, opts CaptureOptions) ([]FlowIdentification, CaptureStats, error) {
	return flow.IdentifyCapture(r, id.core, opts)
}

// IdentifyStream is the streaming form of IdentifyCapture for live or
// unbounded captures: it reads pcap/pcapng bytes from r as they arrive
// and calls onResult -- serially, on the caller's goroutine -- for each
// flow pair the moment it closes, rather than at end of input. Flows
// close when idle past the expiry threshold, when evicted by the tracker
// bound, or when r ends and the remaining flows drain; pairing and
// classification are IdentifyCapture's, with at most 1024 flows waiting
// for a companion. Reading, decoding and classifying run in one loop,
// so r is not read while classification catches up (backpressure)
// and memory does not grow. IdentifyStream returns the capture's stats
// when r reaches EOF or fails, or soon after ctx is cancelled. See
// cmd/caai-pcap -follow and the service's POST /v1/pcap/stream for the
// command-line and HTTP fronts.
func (id *Identifier) IdentifyStream(ctx context.Context, r io.Reader, opts StreamOptions, onResult func(FlowIdentification)) (CaptureStats, error) {
	return flow.IdentifyStream(ctx, r, id.core, opts, onResult)
}

// SaveModel writes the trained model and its probe budget to path so
// later runs can LoadModel instead of retraining. The backend must have a
// registered persistence codec (the random forest does).
func (id *Identifier) SaveModel(path string) error {
	if err := id.core.SaveFile(path); err != nil {
		return fmt.Errorf("caai: saving model: %w", err)
	}
	return nil
}

// LoadModel reads a model saved with SaveModel and returns a ready
// identifier without regenerating the training set, served at the probe
// budget the file records (the paper's for files that record none). The
// loaded model reproduces the saved model's classifications exactly.
// TrainingSet returns nil on a loaded identifier.
func LoadModel(path string) (*Identifier, error) {
	c, err := core.LoadFile(path)
	if err != nil {
		return nil, fmt.Errorf("caai: loading model: %w", err)
	}
	return newIdentifier(c, nil), nil
}

// NewIdentifierFromClassifier wraps an already trained (or loaded)
// classifier in a ready identifier, for callers that manage models
// themselves (custom registries, out-of-tree persistence) rather than
// going through Train or LoadModel. The classifier is taken as trained at
// the default probe budget. TrainingSet returns nil on the result.
func NewIdentifierFromClassifier(c Classifier) *Identifier {
	return newIdentifier(core.NewIdentifier(c), nil)
}

// Classifier exposes the trained classification backend.
func (id *Identifier) Classifier() Classifier { return id.model }

// TrainingSet exposes the generated training vectors (nil for identifiers
// restored with LoadModel).
func (id *Identifier) TrainingSet() *forest.Dataset { return id.dataset }

// Algorithms lists the 14 supported congestion avoidance algorithms.
func Algorithms() []string { return cc.CAAINames() }

// NewAlgorithm instantiates a registered algorithm by name.
func NewAlgorithm(name string) (Algorithm, error) { return cc.New(name) }

// NewTestbedServer returns a cooperative lab server running the named
// algorithm (unlimited pipelining, an effectively infinite page).
func NewTestbedServer(algorithm string) *Server { return websim.Testbed(algorithm) }

// LosslessCondition returns the ideal testbed network condition.
func LosslessCondition() Condition { return netem.Lossless }

// SampleCondition draws a realistic Internet condition from the paper's
// measured RTT/loss distributions (Figs. 4, 10, 11).
func SampleCondition(rng *rand.Rand) Condition {
	return netem.MeasuredDatabase().Sample(rng)
}

// GatherTraces runs only CAAI step 1 against server: environment A and B
// trace gathering with the wmax/MSS ladders. Useful for inspecting raw
// window traces.
func GatherTraces(server *Server, cond Condition, cfg ProbeConfig, rng *rand.Rand) (ta, tb *Trace, wmax int, valid bool) {
	p := probe.New(cfg, cond, rng)
	res := p.Gather(server)
	return res.TraceA, res.TraceB, res.Wmax, res.Valid
}

// ExtractFeatures runs only CAAI step 2 on a gathered trace pair.
func ExtractFeatures(ta, tb *Trace) Vector { return feature.Extract(ta, tb) }

// DefaultInterEnvWait is the paper's wait between environments A and B.
const DefaultInterEnvWait = 10 * time.Minute
