// The passive engine: one decode -> track loop over an io.Reader,
// feeding every finished flow through one sink, and one pairing rule.
// Every entry point runs the loop on the caller's goroutine:
//
//	body -> Reader.Next (bufio, in place) -> Tracker.Observe -> sink -> onFlow
//
// Stream runs it with idle expiry on, for unbounded captures (an HTTP
// request body, stdin), and hands each flow to onFlow the moment it
// closes; IdentifyStream pairs and classifies those flows inline.
// Reassemble runs it with idle expiry off and sorts the flows into
// capture order; Pair feeds them to the same pairer IdentifyStream
// uses. The decoder's buffer is the only buffer: while the loop
// decodes, tracks or classifies it is not reading, so a slow consumer
// stalls the producer instead of growing memory.
package flow

import (
	"context"
	"io"

	"repro/internal/classify"
	"repro/internal/core"
	"repro/internal/feature"
	"repro/internal/pcap"
	"repro/internal/telemetry"
)

// StreamConfig tunes Stream and IdentifyStream. The zero value selects
// the defaults.
type StreamConfig struct {
	// Tracker bounds flow reassembly. MaxEmitted defaults to unlimited
	// in streaming mode, where emitted flows are handed off instead of
	// accumulating.
	Tracker Config
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
	// Packets counts capture records read.
	Packets *telemetry.Counter
	// Flows counts flows emitted (expired, evicted, or drained).
	Flows *telemetry.Counter
}

func (c StreamConfig) withDefaults() StreamConfig {
	if c.Tracker.MaxEmitted == 0 {
		c.Tracker.MaxEmitted = -1
	}
	return c
}

// Stream runs the passive engine over r with idle expiry on, on the
// caller's goroutine. Every finished flow is handed to onFlow serially,
// in close order; the FlowTrace is owned by the callback. Stream returns
// when r reaches EOF (after draining the flows still open) or fails, or
// soon after ctx is cancelled: the loop checks ctx every 4096 records,
// and from the cancel on no flow reaches onFlow. The error is the
// decoder's, else ctx's, else nil.
func Stream(ctx context.Context, r io.Reader, cfg StreamConfig, onFlow func(*FlowTrace)) (CaptureStats, error) {
	return capture(ctx, r, cfg.withDefaults(), true, onFlow)
}

// stream is the state of one run of the engine's loop.
type stream struct {
	ctx          context.Context
	tracker      *Tracker
	metrics      *StreamMetrics
	onFlow       func(*FlowTrace)
	classifiable int64 // flows handed to onFlow with a valid trace
}

// capture runs the engine's loop over r with idle expiry on or off;
// Stream and Reassemble are its two modes.
func capture(ctx context.Context, r io.Reader, cfg StreamConfig, expiry bool, onFlow func(*FlowTrace)) (CaptureStats, error) {
	s := &stream{ctx: ctx, tracker: NewTracker(cfg.Tracker), metrics: cfg.Metrics, onFlow: onFlow}
	if cfg.Metrics != nil {
		s.tracker.Instrument(&cfg.Metrics.Tracker)
	}
	s.tracker.sink, s.tracker.expiry = s.emit, expiry
	return s.run(r)
}

// run is the passive engine's one decode -> track loop: it decodes r,
// tracks every packet, drains the tracker at end of input, and returns
// the capture's stats and first error. Every finished flow reaches emit
// through the tracker's sink.
func (s *stream) run(r io.Reader) (CaptureStats, error) {
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
				if err = s.ctx.Err(); err != nil {
					break
				}
			}
		}
		s.publish(rd, published)
		ds = rd.Stats()
	}
	// End of input: drain the remaining flows to the sink (which drops
	// them once ctx is cancelled).
	s.tracker.Finish()
	ts := s.tracker.Stats()
	stats := CaptureStats{
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
	if err == io.EOF {
		err = s.ctx.Err()
	}
	return stats, err
}

// publish adds the records read since the last call to the Packets
// counter; it returns the new total.
func (s *stream) publish(rd *pcap.Reader, published int64) int64 {
	m := s.metrics
	if m == nil || m.Packets == nil {
		return published
	}
	n := rd.Stats().Packets
	m.Packets.Add(n - published)
	return n
}

// emit is the tracker's sink: it counts the flow and hands it to
// onFlow, or drops it once ctx is cancelled.
func (s *stream) emit(ft *FlowTrace) {
	if s.ctx.Err() != nil {
		return
	}
	if m := s.metrics; m != nil && m.Flows != nil {
		m.Flows.Add(1)
	}
	if ft.Trace != nil && ft.Trace.Valid() {
		s.classifiable++
	}
	s.onFlow(ft)
}

// maxPending bounds the flows IdentifyStream holds waiting for an
// environment-B companion; beyond it the oldest pending flow classifies
// unpaired.
const maxPending = 1024

// IdentifyStream is Stream with each flow paired by (client IP, server)
// and classified with model the moment its pair completes: the engine,
// pairer and per-pair classification IdentifyCapture runs, with idle
// expiry on and at most 1024 flows waiting for a companion. onResult
// runs serially on the caller's goroutine; it owns the
// FlowIdentification. Flow pairing holds a valid timed-out flow until
// its group's next flow closes (or the capture ends), exactly like the
// active prober's environment A then environment B; before returning,
// IdentifyStream classifies every flow still waiting as unpaired, unless
// ctx was cancelled. model's probe budget is taken as in ClassifyAll.
func IdentifyStream(ctx context.Context, r io.Reader, model classify.Classifier, cfg StreamConfig, onResult func(FlowIdentification)) (CaptureStats, error) {
	id := core.NewIdentifier(model)
	var sc feature.Scratch
	var clock telemetry.SpanClock // unarmed: the stream records no spans
	p := pairer{pending: map[string]pendingFlow{}, max: maxPending, onPair: func(fi FlowIdentification, _ int) {
		classifyPair(id, &fi, &sc, &clock)
		if onResult != nil {
			onResult(fi)
		}
	}}
	stats, err := Stream(ctx, r, cfg, p.add)
	if ctx.Err() == nil {
		p.flush()
	}
	return stats, err
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
