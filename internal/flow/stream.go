// Streaming passive identification: an unbounded capture byte stream
// goes in one end, per-flow classifications come out the other as flows
// close, with every stage bounded. The pipeline is
//
//	Write -> pcap.Ring -> decode + track -> sink
//
// One goroutine runs Reassemble's loop over the ring -- pcap.Reader.Next,
// then Tracker.Observe with the tracker in online mode -- and hands each
// finished flow to the caller's sink inline, so the sink needs no locks
// and sees flows in the tracker's close order. The ring is the only
// buffer: when decoding or the sink falls behind, the producer's Write
// (HTTP body, stdin) blocks instead of memory growing.
package flow

import (
	"context"
	"io"
	"sync/atomic"

	"repro/internal/classify"
	"repro/internal/core"
	"repro/internal/pcap"
	"repro/internal/telemetry"
)

// StreamConfig tunes a Stream. The zero value selects the defaults.
type StreamConfig struct {
	// Tracker bounds flow reassembly. MaxEmitted defaults to unlimited
	// in streaming mode, where emitted flows are handed off instead of
	// accumulating.
	Tracker Config
	// RingBytes bounds the ingest ring buffer between the producer and
	// the decoder (default 1 MiB).
	RingBytes int
	// Metrics, when non-nil, publishes live pipeline state.
	Metrics *StreamMetrics
}

// StreamMetrics is the caai_stream_* instrument set. All fields are
// optional; several concurrent streams may share one StreamMetrics (the
// gauges then aggregate across streams).
type StreamMetrics struct {
	// Tracker carries the live-flow gauge, its high water, and the
	// epoch/expiry counters.
	Tracker TrackerMetrics
	// Bytes counts capture bytes accepted by Write.
	Bytes *telemetry.Counter
	// Packets counts capture records read.
	Packets *telemetry.Counter
	// Flows counts flows emitted (expired, evicted, or drained).
	Flows *telemetry.Counter
	// RingHighWater tracks the fullest the ingest ring has been.
	RingHighWater *telemetry.Gauge
}

func (c StreamConfig) withDefaults() StreamConfig {
	if c.RingBytes <= 0 {
		c.RingBytes = 1 << 20
	}
	if c.Tracker.MaxEmitted == 0 {
		c.Tracker.MaxEmitted = -1
	}
	return c
}

// Stream is a running streaming-identification pipeline. Feed capture
// bytes with Write (any chunking), then Close to drain; flows arrive at
// the sink passed to NewStream as they close. Write/Close may run on a
// different goroutine than the one that built the Stream. Abort tears
// the pipeline down early.
type Stream struct {
	cfg     StreamConfig
	ring    *pcap.Ring
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

// NewStream starts a streaming pipeline. Every finished flow is handed
// to onFlow serially, in close order, from the pipeline goroutine; the
// FlowTrace is owned by the callback. Cancelling ctx aborts the
// pipeline. Callers must call Close (or Abort) exactly once.
func NewStream(ctx context.Context, cfg StreamConfig, onFlow func(*FlowTrace)) *Stream {
	cfg = cfg.withDefaults()
	sctx, cancel := context.WithCancel(ctx)
	s := &Stream{
		cfg:     cfg,
		ring:    pcap.NewRing(cfg.RingBytes),
		tracker: NewTracker(cfg.Tracker),
		onFlow:  onFlow,
		ctx:     sctx,
		cancel:  cancel,
		done:    make(chan struct{}),
	}
	if cfg.Metrics != nil {
		s.tracker.Instrument(&cfg.Metrics.Tracker)
	}
	s.tracker.Stream(s.emit)
	go s.run()
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
	s.bytesIn.Add(int64(n))
	if m := s.cfg.Metrics; m != nil && m.Bytes != nil {
		m.Bytes.Add(int64(n))
	}
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

// run is the pipeline body: Reassemble's decode-and-track loop over the
// ring, with the tracker's sink (emit) called inline.
func (s *Stream) run() {
	defer close(s.done)
	defer s.ring.CloseWithError(io.ErrClosedPipe) // unblock any writer on early exit

	var ds pcap.Stats
	rd, err := pcap.NewReader(s.ring)
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
	s.stats = captureStats(ds, s.tracker.Stats())
	s.stats.Classifiable = s.classifiable
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

// IdentifyStreamOptions tunes NewIdentifyStream.
type IdentifyStreamOptions struct {
	// Stream tunes the underlying pipeline.
	Stream StreamConfig
	// MaxPending bounds flows held waiting for an environment-B
	// companion; beyond it the oldest pending flow classifies unpaired
	// (default 1024).
	MaxPending int
}

// IdentifyStream is a Stream whose flows are paired and classified as
// they close: the streaming equivalent of IdentifyCapture.
type IdentifyStream struct {
	*Stream
	p pairer
}

// NewIdentifyStream starts a streaming pipeline that pairs flows by
// (client IP, server) and classifies each pair with model the moment it
// completes, mirroring the offline Pair+ClassifyAll path. onResult runs
// serially on the pipeline goroutine; it owns the FlowIdentification.
// Flow pairing holds a valid timed-out flow until its group's next flow
// closes (or the stream ends), exactly like the active prober's
// environment A then environment B.
func NewIdentifyStream(ctx context.Context, model classify.Classifier, opts IdentifyStreamOptions, onResult func(FlowIdentification)) *IdentifyStream {
	st := &IdentifyStream{}
	st.p = pairer{
		id:         core.NewIdentifier(model),
		pending:    map[string]*FlowTrace{},
		maxPending: opts.MaxPending,
		onResult:   onResult,
	}
	if st.p.maxPending <= 0 {
		st.p.maxPending = 1024
	}
	st.Stream = NewStream(ctx, opts.Stream, st.p.add)
	return st
}

// Close drains the pipeline, classifies every flow still waiting for a
// companion as unpaired, and returns the first pipeline error.
func (st *IdentifyStream) Close() error {
	err := st.Stream.Close()
	st.p.flush()
	return err
}

// pairer groups closing flows by (client IP, server) and classifies
// each pair. It runs entirely on the pipeline goroutine: no locks.
type pairer struct {
	id         *core.Identifier
	pending    map[string]*FlowTrace
	order      []string // FIFO of group keys with a pending flow
	maxPending int
	onResult   func(FlowIdentification)
}

func (p *pairer) add(f *FlowTrace) {
	gk := f.ClientIP + "|" + f.Server
	if a, ok := p.pending[gk]; ok {
		delete(p.pending, gk)
		p.dropOrder(gk)
		p.classify(FlowIdentification{A: a, B: f})
		return
	}
	if f.Trace != nil && f.Trace.Valid() {
		// A valid timed-out trace waits for its environment-B companion.
		if len(p.pending) >= p.maxPending {
			oldest := p.order[0]
			p.order = p.order[1:]
			a := p.pending[oldest]
			delete(p.pending, oldest)
			p.classify(FlowIdentification{A: a})
		}
		p.pending[gk] = f
		p.order = append(p.order, gk)
		return
	}
	p.classify(FlowIdentification{A: f})
}

func (p *pairer) dropOrder(gk string) {
	for i, k := range p.order {
		if k == gk {
			p.order = append(p.order[:i], p.order[i+1:]...)
			return
		}
	}
}

// flush classifies every flow still waiting for a companion.
func (p *pairer) flush() {
	for _, gk := range p.order {
		if a, ok := p.pending[gk]; ok {
			delete(p.pending, gk)
			p.classify(FlowIdentification{A: a})
		}
	}
	p.order = p.order[:0]
}

func (p *pairer) classify(fi FlowIdentification) {
	out := p.id.IdentifyResult(pairResult(&fi))
	out.Elapsed = fi.A.End.Sub(fi.A.Start)
	if fi.B != nil {
		out.Elapsed += fi.B.End.Sub(fi.B.Start)
	}
	fi.ID = out
	if p.onResult != nil {
		p.onResult(fi)
	}
}
