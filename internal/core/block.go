package core

import (
	"context"
	"math/rand"
	"time"

	"repro/internal/engine"
	"repro/internal/feature"
	"repro/internal/netem"
	"repro/internal/probe"
	"repro/internal/telemetry"
	"repro/internal/websim"
)

// BlockSession is a Session plus a buffer of finished results: the
// engine.BlockIdentifier form of the pipeline. Gather runs
// Session.Identify and buffers the outcome under the job's tag; Flush
// emits the buffer in gather order. Results are Session.Identify's job
// for job, and a traced job's stage spans carry its tag.
//
// A BlockSession is NOT safe for concurrent use; engine.IdentifyBatch
// hands one to each pool worker (see engine.BatchConfig.NewWorkerBlock)
// and flushes it after every gathered job.
type BlockSession struct {
	s    Session
	tags []int
	outs []Identification
}

// NewBlockSession returns a reusable pipeline bound to this identifier's
// classifier.
func (id *Identifier) NewBlockSession() *BlockSession {
	return &BlockSession{s: Session{id: id}}
}

// EnableTimings turns on per-stage span recording (see
// Session.EnableTimings).
func (bs *BlockSession) EnableTimings(tel *telemetry.Pipeline) { bs.s.EnableTimings(tel) }

// BindTrace attaches subsequent Gather span recording to a trace in f's
// rings (see Session.BindTrace), each span tagged with its job's tag.
// Batch jobs bind the accepting request's trace, so one ID correlates the
// HTTP submission with every worker's per-job spans.
func (bs *BlockSession) BindTrace(f *telemetry.Flight, tr telemetry.TraceID) { bs.s.BindTrace(f, tr) }

// Gather identifies one server exactly as Session.Identify would -- same
// prober reuse, same RNG stream -- and buffers the outcome under tag.
func (bs *BlockSession) Gather(tag int, server *websim.Server, cond netem.Condition, cfg probe.Config, rng *rand.Rand) {
	bs.s.tag = uint64(tag) & 0xffffffff
	bs.tags = append(bs.tags, tag)
	bs.outs = append(bs.outs, bs.s.Identify(server, cond, cfg, rng))
}

// Buffered reports how many gathered jobs await Flush.
func (bs *BlockSession) Buffered() int { return len(bs.outs) }

// Flush emits each buffered (tag, Identification) in gather order,
// leaving the session empty.
func (bs *BlockSession) Flush(emit func(tag int, out Identification)) {
	for i := range bs.outs {
		emit(bs.tags[i], bs.outs[i])
	}
	bs.tags = bs.tags[:0]
	bs.outs = bs.outs[:0]
}

// IdentifyResults classifies a batch of already-gathered probe results:
// the pipeline for traces that arrived without probing (reassembled
// packet captures, replayed traces). Results are identical to calling
// IdentifyResult per element.
func (id *Identifier) IdentifyResults(ress []*probe.Result) []Identification {
	outs, _ := id.IdentifyResultsCtx(context.Background(), ress, 0)
	return outs
}

// IdentifyResultsCtx is IdentifyResults with cancellation and bounded
// parallelism (0 = all CPUs). On cancellation the samples already
// started are still finished; the rest stay zero. It returns ctx.Err()
// when cancelled.
func (id *Identifier) IdentifyResultsCtx(ctx context.Context, ress []*probe.Result, parallelism int) ([]Identification, error) {
	return id.identifyResults(ctx, ress, parallelism, false, nil)
}

// IdentifyResultsObserved is IdentifyResultsCtx with per-stage span
// recording: every sample's feature and classify spans are stamped into
// its Timings, and tel, when non-nil, aggregates them into per-stage
// histograms. The passive path charges decode/reassembly to StageGather
// upstream of this call (see internal/flow).
func (id *Identifier) IdentifyResultsObserved(ctx context.Context, ress []*probe.Result, parallelism int, tel *telemetry.Pipeline) ([]Identification, error) {
	return id.identifyResults(ctx, ress, parallelism, true, tel)
}

func (id *Identifier) identifyResults(ctx context.Context, ress []*probe.Result, parallelism int, record bool, tel *telemetry.Pipeline) ([]Identification, error) {
	outs := make([]Identification, len(ress))
	scratch := make([]feature.Scratch, engine.Workers(len(ress), parallelism))
	err := engine.RunWorkers(ctx, len(ress), parallelism, func(w, i int) {
		// An unarmed clock's laps are no-ops, so one path serves both.
		var clock telemetry.SpanClock
		if record {
			clock.StartAt(time.Now())
		}
		out := &outs[i]
		var need bool
		*out, need = prepareResult(ress[i], &scratch[w])
		clock.Lap(&out.Timings, telemetry.StageFeature)
		if need {
			label, conf := id.model.Classify(out.Vector[:])
			applyLabel(out, label, conf)
			clock.Lap(&out.Timings, telemetry.StageClassify)
		}
	})
	if tel != nil {
		for i := range outs {
			tel.ObserveTimings(&outs[i].Timings)
		}
	}
	return outs, err
}
