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
	"repro/internal/xrand"
)

// Session is a reusable single-goroutine identification pipeline over one
// Identifier: it keeps a prober (trace recorders, dialer, burst and ACK
// scratch) and the feature-extraction scratch alive across jobs, so a
// stream of Identify calls reuses buffers instead of rebuilding the whole
// pipeline per server. The prober is rearmed to a fresh state (clock,
// condition, RNG) for every call, so each result depends only on that
// call's arguments; Identifier.Identify is one call on a fresh Session.
//
// A Session is NOT safe for concurrent use: IdentifyEach and the census
// runners hold one per pool worker and the service pools them per model.
type Session struct {
	id *Identifier
	p  probe.Prober
	sc feature.Scratch
	// vec is the persistent classify input buffer: handing the model a
	// session-owned slice (instead of slicing the result's Vector array)
	// keeps the Identification itself from escaping through the
	// interface call, which would cost one heap allocation per job.
	vec []float64

	// record enables per-stage span recording (see EnableTimings); tel,
	// when additionally non-nil, aggregates every identification's spans
	// into per-stage histograms. Both add no allocations to Identify --
	// the span clock and timings are plain values on the session.
	record bool
	tel    *telemetry.Pipeline

	// flight/trace bind Identify to a flight-recorder trace (see
	// BindTrace): when both are set and recording is on, each call also
	// emits its stage spans (and an UNSURE event) into the recorder's
	// rings. Pure atomic stores -- the zero-alloc contract holds with
	// tracing enabled, pinned by TestSessionIdentifyAllocatesNothing.
	flight *telemetry.Flight
	trace  telemetry.TraceID
	// tag is the arg stamped on every traced span (see BindTrace).
	tag uint64
}

// NewSession returns a reusable pipeline bound to this identifier's
// classifier.
func (id *Identifier) NewSession() *Session { return &Session{id: id} }

// EnableTimings turns on per-stage span recording: every Identify stamps
// gather / feature / classify wall-clock spans into the returned
// Identification's Timings. tel, when non-nil, additionally aggregates
// each span into its per-stage histogram. Recording costs a few monotonic
// clock reads per identification and allocates nothing; a session that
// never calls EnableTimings reads no clock.
func (s *Session) EnableTimings(tel *telemetry.Pipeline) {
	s.record = true
	s.tel = tel
}

// BindTrace attaches the session's next Identify calls to a trace: stage
// spans (and an UNSURE event when the label comes back unsure) are
// recorded into f's rings under tr, every span carrying tag as its arg --
// a batch passes the job's index so its trace tells its jobs apart.
// Requires EnableTimings to have armed recording; a zero tr (or nil f)
// detaches. Sessions are pooled, so callers re-bind per request.
func (s *Session) BindTrace(f *telemetry.Flight, tr telemetry.TraceID, tag uint64) {
	s.flight = f
	s.trace = tr
	s.tag = tag
}

// Identify runs the full pipeline for one server, reusing the session's
// scratch. It matches Identifier.Identify result-for-result; span
// recording, when enabled, only fills Identification.Timings and feeds
// the histograms and the bound trace.
func (s *Session) Identify(server *websim.Server, cond netem.Condition, cfg probe.Config, rng *rand.Rand) Identification {
	var clock telemetry.SpanClock
	var tm telemetry.StageTimings
	var start time.Time
	if s.record {
		start = time.Now()
		clock.StartAt(start)
	}
	s.p.Rearm(cfg, cond, rng)
	res := s.p.Gather(server)
	clock.Lap(&tm, telemetry.StageGather)
	out, need := s.id.prepare(res, &s.sc)
	clock.Lap(&tm, telemetry.StageFeature)
	if need {
		s.classify(&out)
		clock.Lap(&tm, telemetry.StageClassify)
	}
	if !s.record {
		return out
	}
	out.Timings = tm
	if s.tel != nil {
		s.tel.ObserveTimings(&out.Timings)
	}
	if s.flight != nil && s.trace != 0 {
		s.flight.StageSpans(s.trace, start, &out.Timings, s.tag)
		if out.Label == LabelUnsure {
			s.flight.Event(s.trace, telemetry.EventUnsure, uint64(out.Confidence*1000))
		}
	}
	return out
}

// classify finishes a prepared identification through the model, feeding
// it the session-owned vector buffer (see the vec field).
func (s *Session) classify(out *Identification) {
	if s.vec == nil {
		s.vec = make([]float64, len(out.Vector))
	}
	copy(s.vec, out.Vector[:])
	label, conf := s.id.model.Classify(s.vec)
	applyLabel(out, label, conf)
}

// IdentifyEach identifies n servers on the engine pool, at most
// parallelism at a time (0 = GOMAXPROCS), and returns the results in
// index order. job(i) names job i's server, condition and seed. Each
// pool worker owns one Session and one RNG, reseeded per job to the
// stream xrand.New(seed) draws, so result i is
// NewSession().Identify(server, cond, cfg, xrand.New(seed)) whichever
// worker runs it. job is called on the worker that runs job i.
func (id *Identifier) IdentifyEach(n, parallelism int, cfg probe.Config, job func(i int) (*websim.Server, netem.Condition, int64)) []Identification {
	outs := make([]Identification, n)
	workers := engine.Workers(n, parallelism)
	sessions := make([]*Session, workers)
	rngs := make([]*rand.Rand, workers)
	for w := range sessions {
		sessions[w], rngs[w] = id.NewSession(), xrand.New(0)
	}
	engine.RunWorkers(context.Background(), n, parallelism, func(w, i int) {
		server, cond, seed := job(i)
		xrand.Reseed(rngs[w], seed)
		outs[i] = sessions[w].Identify(server, cond, cfg, rngs[w])
	})
	return outs
}
