package core

import (
	"math/rand"

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
func (bs *BlockSession) BindTrace(f *telemetry.Flight, tr telemetry.TraceID) {
	bs.s.BindTrace(f, tr, 0)
}

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
