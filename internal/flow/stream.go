// The passive engine: one decode -> track loop over any io.Reader,
// feeding every finished flow through one sink, and one pairing rule.
// A Stream runs it for unbounded captures:
//
//	ReadFrom (or Write) -> pcap.Ring -> decode in place + track -> sink
//
// One goroutine runs the loop over the ring with idle expiry on and
// hands each finished flow to the caller's sink inline, so the sink
// needs no locks and sees flows in the tracker's close order. The ring
// is the only buffer: ReadFrom reads the producer (HTTP body, stdin)
// straight into it, the decoder frames records where they lie, and when
// decoding or the sink falls behind the producer blocks instead of
// memory growing.
// Reassemble runs the same loop over a reader on the caller's goroutine
// with idle expiry off, then sorts the flows into capture order; Pair
// feeds them to the same pairer the IdentifyStream uses.
package flow

import (
	"context"
	"io"
	"sync/atomic"

	"repro/internal/classify"
	"repro/internal/core"
	"repro/internal/feature"
	"repro/internal/pcap"
	"repro/internal/telemetry"
)

// StreamConfig tunes a Stream. The zero value selects the defaults.
type StreamConfig struct {
	// Tracker bounds flow reassembly. MaxEmitted defaults to unlimited
	// in streaming mode, where emitted flows are handed off instead of
	// accumulating.
	Tracker Config
	// Metrics, when non-nil, publishes live pipeline state.
	Metrics *StreamMetrics
	// ringBytes bounds the ingest ring buffer between the producer and
	// the decoder (default 1 MiB); only this package's tests shrink it.
	ringBytes int
}

// StreamMetrics is the caai_stream_* instrument set. All fields are
// optional; several concurrent streams may share one StreamMetrics (the
// gauges then aggregate across streams).
type StreamMetrics struct {
	// Tracker carries the live-flow gauge, its high water, and the
	// epoch/expiry counters.
	Tracker TrackerMetrics
	// Bytes counts capture bytes accepted by Write or ReadFrom.
	Bytes *telemetry.Counter
	// Packets counts capture records read.
	Packets *telemetry.Counter
	// Flows counts flows emitted (expired, evicted, or drained).
	Flows *telemetry.Counter
	// RingHighWater tracks the fullest the ingest ring has been.
	RingHighWater *telemetry.Gauge
}

func (c StreamConfig) withDefaults() StreamConfig {
	if c.ringBytes <= 0 {
		c.ringBytes = 1 << 20
	}
	if c.Tracker.MaxEmitted == 0 {
		c.Tracker.MaxEmitted = -1
	}
	return c
}

// Stream is the passive engine running on its own goroutine over a
// bounded ring, with idle expiry on. Feed capture bytes with ReadFrom
// (io.Copy into the Stream) or Write (any chunking) from one goroutine
// at a time, then Close to drain; flows arrive at the sink passed to
// NewStream as they close. The feed and Close may run on a different
// goroutine than the one that built the Stream. Abort tears the pipeline
// down early. Reassemble runs the same engine over a reader, expiry off.
type Stream struct {
	cfg     StreamConfig
	ring    *pcap.Ring // nil when Reassemble runs the loop over a reader
	tracker *Tracker
	onFlow  func(*FlowTrace)

	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}

	bytesIn      atomic.Int64
	classifiable int64        // flows handed to onFlow with a valid trace
	err          error        // pipeline error, valid after done
	stats        CaptureStats // valid after done
}

// NewStream starts a streaming pipeline with idle expiry on. Every
// finished flow is handed to onFlow serially, in close order, from the
// pipeline goroutine; the FlowTrace is owned by the callback. Cancelling
// ctx aborts the pipeline. Callers must call Close (or Abort) exactly
// once.
func NewStream(ctx context.Context, cfg StreamConfig, onFlow func(*FlowTrace)) *Stream {
	return newStream(ctx, cfg, onFlow, true)
}

// newStream is NewStream with idle expiry selectable: off, the ring
// pipeline emits exactly the flows Reassemble does.
func newStream(ctx context.Context, cfg StreamConfig, onFlow func(*FlowTrace), expiry bool) *Stream {
	cfg = cfg.withDefaults()
	sctx, cancel := context.WithCancel(ctx)
	s := &Stream{
		cfg:     cfg,
		ring:    pcap.NewRing(cfg.ringBytes),
		tracker: NewTracker(cfg.Tracker),
		onFlow:  onFlow,
		ctx:     sctx,
		cancel:  cancel,
		done:    make(chan struct{}),
	}
	if cfg.Metrics != nil {
		s.tracker.Instrument(&cfg.Metrics.Tracker)
	}
	s.tracker.sink, s.tracker.expiry = s.emit, expiry
	go s.serve()
	// Unblock the pipeline promptly when ctx is cancelled from outside.
	go func() {
		select {
		case <-sctx.Done():
			s.ring.CloseWithError(context.Cause(sctx))
		case <-s.done:
		}
	}()
	return s
}

// Write feeds capture bytes into the pipeline, blocking when the ring
// is full until the decoder catches up (end-to-end backpressure).
func (s *Stream) Write(p []byte) (int, error) {
	n, err := s.ring.Write(p)
	s.count(n)
	return n, err
}

// ReadFrom feeds the pipeline from src until src's EOF, reading straight
// into the ring's free space, so each byte is copied once; io.Copy into
// a Stream takes this path. It blocks as Write does, and stops at the
// pipeline's error when decoding fails first.
func (s *Stream) ReadFrom(src io.Reader) (int64, error) {
	return s.ring.ReadFrom(countingReader{src, s})
}

// count records n capture bytes accepted.
func (s *Stream) count(n int) {
	s.bytesIn.Add(int64(n))
	if m := s.cfg.Metrics; m != nil && m.Bytes != nil {
		m.Bytes.Add(int64(n))
	}
}

// countingReader counts every read of a ReadFrom source as it lands, so
// BytesIn and the bytes counter advance while a long upload runs.
type countingReader struct {
	src io.Reader
	s   *Stream
}

func (c countingReader) Read(p []byte) (int, error) {
	n, err := c.src.Read(p)
	c.s.count(n)
	return n, err
}

// Close ends the input, waits for the pipeline to drain (every
// remaining flow is emitted), and returns the first pipeline error.
func (s *Stream) Close() error {
	s.ring.Close()
	<-s.done
	s.cancel()
	return s.err
}

// Abort tears the pipeline down without draining: blocked producers and
// consumers unwind, remaining flows are dropped. Safe to call after
// Close; safe to call concurrently with Write.
func (s *Stream) Abort(err error) {
	if err == nil {
		err = context.Canceled
	}
	s.ring.CloseWithError(err)
	s.cancel()
	<-s.done
}

// Stats reports the pipeline counters. Valid after Close/Abort.
func (s *Stream) Stats() CaptureStats { return s.stats }

// BytesIn reports capture bytes accepted so far. Safe to call from any
// goroutine while the stream runs.
func (s *Stream) BytesIn() int64 { return s.bytesIn.Load() }

// serve is the stream's goroutine: the engine loop over the ring. On
// exit it closes the ring with the pipeline's error (io.ErrClosedPipe
// when there is none), so a producer still writing stops with the
// error that stopped the loop.
func (s *Stream) serve() {
	defer close(s.done)
	s.run(s.ring)
	s.ring.CloseWithError(s.err)
}

// run is the passive engine's one decode -> track loop: it decodes r,
// tracks every packet, drains the tracker at end of input, and records
// the capture's stats and first error. Every finished flow reaches emit
// through the tracker's sink.
func (s *Stream) run(r io.Reader) {
	var ds pcap.Stats
	rd, err := pcap.NewReader(r)
	if err == nil {
		var pkt pcap.Packet
		var published int64
		for countdown := 0; ; countdown-- {
			if err = rd.Next(&pkt); err != nil {
				break
			}
			s.tracker.Observe(&pkt)
			if countdown <= 0 {
				countdown = 4096
				published = s.publish(rd, published)
			}
		}
		s.publish(rd, published)
		ds = rd.Stats()
	}
	// End of input: drain the remaining flows to the sink.
	s.tracker.Finish()
	ts := s.tracker.Stats()
	s.stats = CaptureStats{
		Packets:          ds.Packets,
		TCPSegments:      ds.TCP,
		SkippedPackets:   ds.Skipped,
		TruncatedPackets: ds.Truncated,
		Flows:            ts.Flows,
		Classifiable:     s.classifiable,
		EvictedFlows:     ts.Evicted,
		DroppedFlows:     ts.Dropped,
		TruncatedFlows:   ts.Truncated,
	}
	switch {
	case err != nil && err != io.EOF:
		s.err = err
	case s.ctx.Err() != nil:
		s.err = s.ctx.Err()
	}
}

// publish adds the records read since the last call to the Packets
// counter and refreshes the ring high water; it returns the new total.
func (s *Stream) publish(rd *pcap.Reader, published int64) int64 {
	m := s.cfg.Metrics
	if m == nil {
		return published
	}
	n := rd.Stats().Packets
	if m.Packets != nil {
		m.Packets.Add(n - published)
	}
	if m.RingHighWater != nil {
		m.RingHighWater.SetMax(int64(s.ring.HighWater()))
	}
	return n
}

// emit is the tracker's sink: it counts the flow and hands it to
// onFlow, or drops it once the stream is aborted.
func (s *Stream) emit(ft *FlowTrace) {
	if s.ctx.Err() != nil {
		return
	}
	if m := s.cfg.Metrics; m != nil && m.Flows != nil {
		m.Flows.Add(1)
	}
	if ft.Trace != nil && ft.Trace.Valid() {
		s.classifiable++
	}
	s.onFlow(ft)
}

// maxPending bounds the flows an IdentifyStream holds waiting for an
// environment-B companion; beyond it the oldest pending flow classifies
// unpaired.
const maxPending = 1024

// IdentifyStream is a Stream whose flows are paired and classified as
// they close: the streaming shape of IdentifyCapture.
type IdentifyStream struct {
	*Stream
	p        pairer
	id       *core.Identifier
	sc       feature.Scratch
	onResult func(FlowIdentification)
}

// NewIdentifyStream starts a streaming pipeline that pairs flows by
// (client IP, server) and classifies each pair with model the moment it
// completes: the engine, pairer and per-pair classification
// IdentifyCapture runs, with idle expiry on and at most 1024 flows
// waiting for a companion. onResult runs serially on the pipeline
// goroutine; it owns the FlowIdentification. Flow pairing holds a valid
// timed-out flow until its group's next flow closes (or the stream
// ends), exactly like the active prober's environment A then
// environment B. model's probe budget is taken as in ClassifyAll.
func NewIdentifyStream(ctx context.Context, model classify.Classifier, cfg StreamConfig, onResult func(FlowIdentification)) *IdentifyStream {
	st := &IdentifyStream{id: core.NewIdentifier(model), onResult: onResult}
	st.p = pairer{pending: map[string]pendingFlow{}, max: maxPending, onPair: st.classify}
	st.Stream = NewStream(ctx, cfg, st.p.add)
	return st
}

// Close drains the pipeline, classifies every flow still waiting for a
// companion as unpaired, and returns the first pipeline error.
func (st *IdentifyStream) Close() error {
	err := st.Stream.Close()
	st.p.flush()
	return err
}

// classify is the stream's pair sink: the one per-pair classification,
// with an unarmed clock (the stream records no spans), then onResult.
func (st *IdentifyStream) classify(fi FlowIdentification, _ int) {
	classifyPair(st.id, &fi, &st.sc, new(telemetry.SpanClock))
	if st.onResult != nil {
		st.onResult(fi)
	}
}

// pairer is the passive pipeline's one pairing rule. It groups flows by
// (client IP, server) in arrival order and pairs each valid timed-out
// flow with the next flow of its group, mirroring how the active prober
// gathers environment A then environment B from one server. A valid
// flow waits in the pending set until its companion arrives, the set
// overflows max (the oldest waiter leaves unpaired), or flush. Flows
// with no valid trace and no waiting predecessor leave unpaired at once.
// It runs on one goroutine: no locks.
type pairer struct {
	pending        map[string]pendingFlow
	oldest, newest string // ends of the pending FIFO ("" when empty)
	max            int    // pending bound; 0 leaves it unbounded
	n              int    // flows added so far
	// onPair receives every pair; a is the arrival index of its A flow.
	onPair func(fi FlowIdentification, a int)
}

// pendingFlow is one flow waiting for its companion. Its FIFO links are
// its neighbours' group keys, so leaving the FIFO is O(1).
type pendingFlow struct {
	f          *FlowTrace
	at         int // arrival index
	prev, next string
}

func (p *pairer) add(f *FlowTrace) {
	at := p.n
	p.n++
	gk := f.ClientIP + "|" + f.Server
	if a, ok := p.pending[gk]; ok {
		p.unlink(gk, a)
		p.onPair(FlowIdentification{A: a.f, B: f}, a.at)
		return
	}
	if f.Trace == nil || !f.Trace.Valid() {
		p.onPair(FlowIdentification{A: f}, at)
		return
	}
	// A valid timed-out trace waits for its environment-B companion.
	if p.max > 0 && len(p.pending) >= p.max {
		p.release(p.oldest)
	}
	if p.newest == "" {
		p.oldest = gk
	} else {
		last := p.pending[p.newest]
		last.next = gk
		p.pending[p.newest] = last
	}
	p.pending[gk] = pendingFlow{f: f, at: at, prev: p.newest}
	p.newest = gk
}

// unlink removes group gk's pending flow e from the set and the FIFO.
func (p *pairer) unlink(gk string, e pendingFlow) {
	delete(p.pending, gk)
	if e.prev == "" {
		p.oldest = e.next
	} else {
		prev := p.pending[e.prev]
		prev.next = e.next
		p.pending[e.prev] = prev
	}
	if e.next == "" {
		p.newest = e.prev
	} else {
		next := p.pending[e.next]
		next.prev = e.prev
		p.pending[e.next] = next
	}
}

// release sends group gk's pending flow on unpaired.
func (p *pairer) release(gk string) {
	e := p.pending[gk]
	p.unlink(gk, e)
	p.onPair(FlowIdentification{A: e.f}, e.at)
}

// flush releases every pending flow, oldest first.
func (p *pairer) flush() {
	for p.oldest != "" {
		p.release(p.oldest)
	}
}
