package telemetry

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Flight is a flight recorder for per-identification traces: every span
// and event of every request is written -- always on, no sampling
// decision up front -- into per-shard preallocated ring buffers of
// fixed-size atomic records, and only at completion does tail sampling
// decide which traces survive the ring into the bounded retained store.
// The recording path is allocation-free and lock-free: one span is a
// handful of atomic stores into a preallocated slot, so the identify hot
// path keeps its zero-allocs/op contract with tracing enabled (gated by
// the telemetry/trace_overhead budget, like telemetry/overhead gates the
// histogram path).
//
// Tail-sampling keep rules, checked in order at Finish:
//
//  1. outcome: every error / UNSURE / special / invalid trace is kept;
//  2. slow: any trace at least Slow long is kept;
//  3. sampled: a deterministic 1-in-SampleN of the remaining normal
//     traffic (keep iff mix64(id^Seed) % SampleN == 0, see Sampled).
//
// Retention runs on one collector goroutine: Finish enqueues a small
// completion record, the collector scans the rings for the trace's spans
// and inserts the assembled Trace into a bounded FIFO store. A full
// completion queue drops the trace (counted in Stats().Lost) rather than
// ever blocking a request. Drain is the read-your-writes barrier the
// HTTP surface uses; Close stops the collector (goroutine-leak-free,
// pinned by test).
type Flight struct {
	cfg  FlightConfig
	mask uint64
	// rings are goroutine-affine (shardIndex), so concurrent writers
	// usually land on different cursors and cache lines.
	rings [flightShards]flightRing

	seq atomic.Uint64 // Mint counter

	spans    Counter      // span/event records written (hot path)
	finished atomic.Int64 // Finish calls
	retained atomic.Int64 // traces that passed tail sampling
	dropped  atomic.Int64 // normal traces tail sampling discarded
	lost     atomic.Int64 // kept traces lost to a full completion queue

	finishCh chan finishMsg
	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	store retainedStore
}

// FlightConfig tunes a Flight. The zero value of every field selects the
// default.
type FlightConfig struct {
	// SampleN keeps a deterministic 1-in-SampleN of normal (fast, OK)
	// traces: 1 keeps every trace, negative keeps none (errors and slow
	// traces are always kept). 0 means DefaultTraceSampleN.
	SampleN int
	// Slow is the latency threshold past which every trace is kept
	// regardless of outcome. 0 means DefaultTraceSlow.
	Slow time.Duration
	// Retain bounds the retained-trace store (FIFO eviction). 0 means
	// DefaultTraceRetain.
	Retain int
	// Slots is the per-shard ring capacity in span records, rounded up
	// to a power of two. 0 means defaultRingSlots.
	Slots int
	// Seed perturbs the deterministic sampling hash (0 = 1), so two
	// processes sampling the same IDs can keep disjoint subsets.
	Seed uint64
}

// Flight defaults.
const (
	DefaultTraceSampleN = 16
	DefaultTraceSlow    = 500 * time.Millisecond
	DefaultTraceRetain  = 256

	// flightShards is the ring count; a small power of two -- spans from
	// one goroutine stay on one cursor, and the collector scan cost is
	// flightShards * slots per retained trace.
	flightShards     = 8
	defaultRingSlots = 2048
)

func (c FlightConfig) withDefaults() FlightConfig {
	if c.SampleN == 0 {
		c.SampleN = DefaultTraceSampleN
	}
	if c.Slow == 0 {
		c.Slow = DefaultTraceSlow
	}
	if c.Retain <= 0 {
		c.Retain = DefaultTraceRetain
	}
	if c.Slots <= 0 {
		c.Slots = defaultRingSlots
	}
	for c.Slots&(c.Slots-1) != 0 {
		c.Slots &= c.Slots - 1 // clear lowest bit until a power of two...
		c.Slots <<= 1          // ...then double: next power of two above
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// flightRing is one preallocated span ring: a monotonic claim cursor and
// power-of-two slot array.
type flightRing struct {
	cursor atomic.Uint64
	_      [56]byte // keep neighbouring cursors off one cache line
	slots  []slot
}

// slot is one fixed-size span record. Every field is an atomic so
// concurrent write/scan is race-detector-clean; seq is the consistency
// protocol: a writer publishes 0 (writing), then the payload, then its
// 1-based claim position. A scanner accepts a slot only when seq reads
// the same non-zero value before and after the payload loads, so a torn
// record (overwritten mid-scan) is discarded instead of misreported. Two
// writers can collide on one slot only when the claim cursor laps the
// whole ring while the first writer is still mid-store -- nanoseconds
// versus thousands of spans -- and the cost would be one garbled
// diagnostic span, not corruption.
type slot struct {
	seq   atomic.Uint64
	trace atomic.Uint64
	meta  atomic.Uint64 // kind<<62 | code<<56 | arg (48 bits)
	start atomic.Int64  // wall clock, unix nanoseconds
	dur   atomic.Int64  // nanoseconds
}

// NewFlight starts a flight recorder and its retention collector.
// Callers own the Close.
func NewFlight(cfg FlightConfig) *Flight {
	cfg = cfg.withDefaults()
	f := &Flight{
		cfg:      cfg,
		mask:     uint64(cfg.Slots - 1),
		finishCh: make(chan finishMsg, 256),
		stop:     make(chan struct{}),
		store: retainedStore{
			cap:  cfg.Retain,
			byID: make(map[TraceID]*Trace, cfg.Retain),
		},
	}
	for i := range f.rings {
		f.rings[i].slots = make([]slot, cfg.Slots)
	}
	f.wg.Add(1)
	go f.collector()
	return f
}

// Close stops the retention collector after it drains the pending
// completions. Safe to call twice; spans recorded after Close still land
// in the rings but no further traces are retained.
func (f *Flight) Close() {
	if f == nil {
		return
	}
	f.stopOnce.Do(func() { close(f.stop) })
	f.wg.Wait()
}

// TraceID identifies one end-to-end trace. IDs are minted (Mint) or
// derived from client request IDs (HashTraceID); 0 means "no trace" and
// makes every recording call a no-op, so unthreaded paths cost nothing.
type TraceID uint64

// String renders the ID the way the service mints X-Request-ID values:
// 16 lowercase hex digits.
func (tr TraceID) String() string { return fmt.Sprintf("%016x", uint64(tr)) }

// ParseTraceID parses the String rendering.
func ParseTraceID(s string) (TraceID, bool) {
	if len(s) != 16 {
		return 0, false
	}
	v, err := strconv.ParseUint(s, 16, 64)
	if err != nil || v == 0 {
		return 0, false
	}
	return TraceID(v), true
}

// mix64 is the SplitMix64 output function (the same finalizer
// internal/xrand draws with): a cheap bijective avalanche over uint64.
func mix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Mint issues a fresh process-unique trace ID: SplitMix64 over an atomic
// counter, so IDs are well-distributed for the sampling hash and the hex
// rendering doubles as the minted X-Request-ID.
func (f *Flight) Mint() TraceID {
	id := mix64(f.seq.Add(1) ^ f.cfg.Seed)
	if id == 0 {
		id = 1
	}
	return TraceID(id)
}

// HashTraceID derives the trace ID of a client-supplied request ID
// deterministically (FNV-1a then SplitMix64 finish), so a caller that
// knows the X-Request-ID it sent can look its trace up without parsing
// anything back.
func HashTraceID(reqID string) TraceID {
	const (
		fnvOffset = 14695981039346656037
		fnvPrime  = 1099511628211
	)
	h := uint64(fnvOffset)
	for i := 0; i < len(reqID); i++ {
		h ^= uint64(reqID[i])
		h *= fnvPrime
	}
	id := mix64(h)
	if id == 0 {
		id = 1
	}
	return TraceID(id)
}

// Sampled reports the deterministic 1-in-n tail-sampling decision for a
// normal-outcome trace: keep iff mix64(id^seed) lands in residue class
// zero. Exported so tests (and operators predicting retention) can apply
// the exact rule.
func Sampled(tr TraceID, seed uint64, n int) bool {
	if n <= 0 {
		return false
	}
	return mix64(uint64(tr)^seed)%uint64(n) == 0
}

// Span/event records.

const (
	kindStage = 0
	kindEvent = 1
	argMask   = 1<<56 - 1
)

// Event enumerates the typed point events a trace can carry alongside
// its stage spans.
type Event uint8

const (
	// EventCacheHit / EventCacheMiss mark the service result-cache
	// outcome of a request.
	EventCacheHit Event = iota
	EventCacheMiss
	// EventShardAssign marks a batch job landing on an engine worker
	// (arg: worker<<32 | job tag) or a streamed flow leaving a decode
	// shard (arg: shard).
	EventShardAssign
	// EventRetry / EventDeferral mark census probe attempts re-queued
	// after a transient timeout or rate limit (arg: attempt/deferral
	// count).
	EventRetry
	EventDeferral
	// EventUnsure marks an identification that came back UNSURE
	// (arg: confidence in thousandths).
	EventUnsure
	numEvents int = iota
)

var eventNames = [numEvents]string{
	"cache_hit", "cache_miss", "shard_assign", "retry", "deferral", "unsure",
}

// String returns the event's snake_case label.
func (e Event) String() string {
	if int(e) < len(eventNames) {
		return eventNames[e]
	}
	return "unknown"
}

// emit writes one record into the caller-affine ring: claim a slot, mark
// it writing, publish the payload, publish the claim. Pure atomics on
// preallocated memory -- no allocation, no locks.
func (f *Flight) emit(tr TraceID, meta uint64, start, dur int64) {
	r := &f.rings[shardIndex()&(flightShards-1)]
	pos := r.cursor.Add(1)
	s := &r.slots[(pos-1)&f.mask]
	s.seq.Store(0)
	s.trace.Store(uint64(tr))
	s.meta.Store(meta)
	s.start.Store(start)
	s.dur.Store(dur)
	s.seq.Store(pos)
	f.spans.Add(1)
}

// Span records one stage span under tr. arg carries path-specific
// context (a batch job tag, a shard index); 0 when not meaningful.
// No-op on a nil Flight or zero TraceID.
func (f *Flight) Span(tr TraceID, s Stage, start time.Time, d time.Duration, arg uint64) {
	if f == nil || tr == 0 {
		return
	}
	f.emit(tr, uint64(kindStage)<<62|uint64(s)<<56|arg&argMask, start.UnixNano(), int64(d))
}

// Event records one point event under tr, stamped now.
// No-op on a nil Flight or zero TraceID.
func (f *Flight) Event(tr TraceID, e Event, arg uint64) {
	if f == nil || tr == 0 {
		return
	}
	f.emit(tr, uint64(kindEvent)<<62|uint64(e)<<56|arg&argMask, time.Now().UnixNano(), 0)
}

// StageSpans records every non-zero stage of a timing breakdown as
// consecutive spans starting at base (stages run in enum order on the
// recording paths). This is how a core session flushes its whole
// breakdown in one call without threading per-stage clocks around.
func (f *Flight) StageSpans(tr TraceID, base time.Time, t *StageTimings, arg uint64) {
	if f == nil || tr == 0 {
		return
	}
	for s := range t {
		if t[s] == 0 {
			continue
		}
		f.Span(tr, Stage(s), base, t[s], arg)
		base = base.Add(t[s])
	}
}

// Trace completion and tail sampling.

// Outcome classifies a finished trace for tail sampling, mirroring the
// service's outcome counters (internal/eval's accounting classes plus
// transport errors).
type Outcome uint8

const (
	OutcomeOK Outcome = iota
	OutcomeUnsure
	OutcomeSpecial
	OutcomeInvalid
	OutcomeError
	numOutcomes int = iota
)

var outcomeNames = [numOutcomes]string{"ok", "unsure", "special", "invalid", "error"}

// String returns the outcome's label.
func (o Outcome) String() string {
	if int(o) < len(outcomeNames) {
		return outcomeNames[o]
	}
	return "unknown"
}

// ParseOutcome resolves an outcome label (for trace filters); false for
// unknown labels.
func ParseOutcome(s string) (Outcome, bool) {
	for i, n := range outcomeNames {
		if n == s {
			return Outcome(i), true
		}
	}
	return 0, false
}

// TraceDone is one completed trace's summary, handed to Finish at the
// boundary that owns the trace (the HTTP middleware for synchronous
// requests, the job executor for async jobs).
type TraceDone struct {
	ID        TraceID
	RequestID string
	Route     string
	Outcome   Outcome
	Status    int
	Start     time.Time
	Duration  time.Duration
}

// Retention reasons recorded on kept traces.
const (
	RetainOutcome = "outcome"
	RetainSlow    = "slow"
	RetainSampled = "sampled"
)

// Finish applies tail sampling to a completed trace: kept traces are
// handed to the collector (which scans the rings and stores the span
// tree); the rest are dropped and eventually overwritten in the rings.
// Never blocks: a full completion queue loses the trace (Stats().Lost).
func (f *Flight) Finish(d TraceDone) {
	if f == nil || d.ID == 0 {
		return
	}
	f.finished.Add(1)
	var reason string
	switch {
	case d.Outcome != OutcomeOK:
		reason = RetainOutcome
	case d.Duration >= f.cfg.Slow:
		reason = RetainSlow
	case Sampled(d.ID, f.cfg.Seed, f.cfg.SampleN):
		reason = RetainSampled
	default:
		f.dropped.Add(1)
		return
	}
	select {
	case f.finishCh <- finishMsg{done: d, reason: reason}:
	case <-f.stop:
		f.lost.Add(1)
	default:
		f.lost.Add(1)
	}
}

// Drain blocks until every Finish call that returned before Drain began
// has been applied to the retained store -- the read-your-writes barrier
// GET /v1/traces uses so a freshly finished request is immediately
// visible. Returns promptly after Close.
func (f *Flight) Drain() {
	if f == nil {
		return
	}
	ack := make(chan struct{})
	select {
	case f.finishCh <- finishMsg{ack: ack}:
		select {
		case <-ack:
		case <-f.stop:
		}
	case <-f.stop:
	}
}

// finishMsg is one completion handed to the collector; ack (alone) marks
// a Drain barrier.
type finishMsg struct {
	done   TraceDone
	reason string
	ack    chan struct{}
}

// collector is the retention goroutine: it serializes ring scans and
// store inserts, so the store needs no fine-grained locking against
// writers and the scan cost never lands on a request goroutine.
func (f *Flight) collector() {
	defer f.wg.Done()
	for {
		select {
		case m := <-f.finishCh:
			f.apply(m)
		case <-f.stop:
			// Drain what is already queued so Close loses nothing that
			// was accepted, then exit.
			for {
				select {
				case m := <-f.finishCh:
					f.apply(m)
				default:
					return
				}
			}
		}
	}
}

func (f *Flight) apply(m finishMsg) {
	if m.ack != nil {
		close(m.ack)
		return
	}
	t := f.assemble(m.done, m.reason)
	f.store.put(t)
	f.retained.Add(1)
}

// assemble scans every ring for the trace's surviving spans and builds
// the retained Trace. Spans overwritten by ring wraparound before
// completion are simply absent (the flight-recorder trade: bounded
// memory, best-effort span detail).
func (f *Flight) assemble(d TraceDone, reason string) *Trace {
	t := &Trace{
		ID:         d.ID.String(),
		RequestID:  d.RequestID,
		Route:      d.Route,
		Outcome:    d.Outcome.String(),
		Status:     d.Status,
		Retained:   reason,
		Start:      d.Start.UTC(),
		DurationMs: float64(d.Duration) / float64(time.Millisecond),
	}
	startNanos := d.Start.UnixNano()
	for r := range f.rings {
		ring := &f.rings[r]
		for i := range ring.slots {
			s := &ring.slots[i]
			v1 := s.seq.Load()
			if v1 == 0 {
				continue
			}
			if TraceID(s.trace.Load()) != d.ID {
				continue
			}
			meta := s.meta.Load()
			start := s.start.Load()
			dur := s.dur.Load()
			if s.seq.Load() != v1 {
				continue // torn: overwritten mid-scan
			}
			sp := Span{
				StartUs:    float64(start-startNanos) / float64(time.Microsecond),
				DurationUs: float64(dur) / float64(time.Microsecond),
				Arg:        int64(meta & argMask),
			}
			code := uint8(meta >> 56 & 0x3f)
			if meta>>62 == kindStage {
				sp.Kind, sp.Name = "stage", Stage(code).String()
			} else {
				sp.Kind, sp.Name = "event", Event(code).String()
			}
			t.Spans = append(t.Spans, sp)
		}
	}
	sortSpans(t.Spans)
	return t
}

// sortSpans orders by start offset (insertion sort: span counts per
// trace are small and ring order is already mostly chronological).
func sortSpans(spans []Span) {
	for i := 1; i < len(spans); i++ {
		for j := i; j > 0 && spans[j].StartUs < spans[j-1].StartUs; j-- {
			spans[j], spans[j-1] = spans[j-1], spans[j]
		}
	}
}

// Trace is one retained trace: the completion summary plus the span tree
// recovered from the rings, JSON-shaped for GET /v1/traces/{id}.
type Trace struct {
	ID         string    `json:"id"`
	RequestID  string    `json:"request_id,omitempty"`
	Route      string    `json:"route,omitempty"`
	Outcome    string    `json:"outcome"`
	Status     int       `json:"status,omitempty"`
	Retained   string    `json:"retained"`
	Start      time.Time `json:"start"`
	DurationMs float64   `json:"duration_ms"`
	Spans      []Span    `json:"spans"`
}

// Span is one recovered record: a stage span (with duration) or a point
// event. StartUs is the offset from the trace's start in microseconds
// (negative when a span predates the completion window's Start, e.g. a
// queue admission stamped before the measuring boundary).
type Span struct {
	Kind       string  `json:"kind"`
	Name       string  `json:"name"`
	StartUs    float64 `json:"start_us"`
	DurationUs float64 `json:"duration_us,omitempty"`
	Arg        int64   `json:"arg,omitempty"`
}

// TraceSummary is one list entry of GET /v1/traces: the completion
// summary without the span payload.
type TraceSummary struct {
	ID         string    `json:"id"`
	RequestID  string    `json:"request_id,omitempty"`
	Route      string    `json:"route,omitempty"`
	Outcome    string    `json:"outcome"`
	Status     int       `json:"status,omitempty"`
	Retained   string    `json:"retained"`
	Start      time.Time `json:"start"`
	DurationMs float64   `json:"duration_ms"`
	Spans      int       `json:"spans"`
}

// TraceFilter narrows List. Zero fields match everything.
type TraceFilter struct {
	// Outcome matches the outcome label exactly ("" matches all).
	Outcome string
	// Route matches the route exactly ("" matches all).
	Route string
	// MinDuration keeps traces at least this long.
	MinDuration time.Duration
	// Limit bounds the result count (0 = no bound).
	Limit int
}

// retainedStore is the bounded FIFO keep of sampled traces. A re-finish
// of an ID already stored (an async job completing after its accepting
// request was retained) replaces the entry in place with the fuller scan.
type retainedStore struct {
	mu    sync.RWMutex
	cap   int
	byID  map[TraceID]*Trace
	order []TraceID
}

func (st *retainedStore) put(t *Trace) {
	id, _ := ParseTraceID(t.ID)
	st.mu.Lock()
	defer st.mu.Unlock()
	if _, ok := st.byID[id]; ok {
		st.byID[id] = t // replace in place, keep FIFO position
		return
	}
	st.byID[id] = t
	st.order = append(st.order, id)
	for len(st.order) > st.cap {
		delete(st.byID, st.order[0])
		st.order = st.order[1:]
	}
}

func (st *retainedStore) get(id TraceID) (*Trace, bool) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	t, ok := st.byID[id]
	return t, ok
}

func (st *retainedStore) list(fl TraceFilter) []TraceSummary {
	st.mu.RLock()
	defer st.mu.RUnlock()
	out := make([]TraceSummary, 0, len(st.order))
	for i := len(st.order) - 1; i >= 0; i-- { // newest first
		t := st.byID[st.order[i]]
		if fl.Outcome != "" && t.Outcome != fl.Outcome {
			continue
		}
		if fl.Route != "" && t.Route != fl.Route {
			continue
		}
		if fl.MinDuration > 0 && t.DurationMs < float64(fl.MinDuration)/float64(time.Millisecond) {
			continue
		}
		out = append(out, TraceSummary{
			ID: t.ID, RequestID: t.RequestID, Route: t.Route,
			Outcome: t.Outcome, Status: t.Status, Retained: t.Retained,
			Start: t.Start, DurationMs: t.DurationMs, Spans: len(t.Spans),
		})
		if fl.Limit > 0 && len(out) >= fl.Limit {
			break
		}
	}
	return out
}

func (st *retainedStore) len() int {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return len(st.order)
}

// Get returns a retained trace by ID.
func (f *Flight) Get(tr TraceID) (Trace, bool) {
	if f == nil {
		return Trace{}, false
	}
	t, ok := f.store.get(tr)
	if !ok {
		return Trace{}, false
	}
	return *t, true
}

// Lookup resolves a retained trace by its wire key: the 16-hex-digit
// minted rendering, or any client-supplied X-Request-ID (hashed with
// HashTraceID -- the same derivation the service boundary applied).
func (f *Flight) Lookup(key string) (Trace, bool) {
	if f == nil {
		return Trace{}, false
	}
	if id, ok := ParseTraceID(key); ok {
		if t, ok := f.Get(id); ok {
			return t, true
		}
	}
	return f.Get(HashTraceID(key))
}

// List returns retained-trace summaries, newest first, narrowed by fl.
func (f *Flight) List(fl TraceFilter) []TraceSummary {
	if f == nil {
		return nil
	}
	return f.store.list(fl)
}

// Declare declares the recorder's accounting on r: FlightStats under
// key and one Prometheus family per field.
func (f *Flight) Declare(r *Registry, key string) {
	r.Family(key, func() any { return f.Stats() }, "", "", "", nil)
	r.CounterFunc("", "caai_trace_spans_total", "Spans written into the flight-recorder rings.", f.spans.Load)
	r.CounterFunc("", "caai_trace_finished_total", "Traces offered to tail sampling at completion.", f.finished.Load)
	r.CounterFunc("", "caai_trace_retained_total", "Traces kept by tail sampling (outcome / slow / sampled).", f.retained.Load)
	r.CounterFunc("", "caai_trace_dropped_total", "Normal traces discarded by tail sampling.", f.dropped.Load)
	r.CounterFunc("", "caai_trace_lost_total", "Trace completions lost to a full collector queue.", f.lost.Load)
	r.GaugeFunc("", "caai_trace_stored", "Traces currently held in the bounded retained store.", func() int64 { return int64(f.store.len()) })
}

// FlightStats is the recorder's own accounting, exposed on /metrics.
type FlightStats struct {
	// Spans counts span/event records written into the rings.
	Spans int64 `json:"spans"`
	// Finished counts completed traces offered to tail sampling;
	// Retained the ones kept, Dropped the normal traffic discarded,
	// Lost the kept traces that hit a full completion queue.
	Finished int64 `json:"finished"`
	Retained int64 `json:"retained"`
	Dropped  int64 `json:"dropped"`
	Lost     int64 `json:"lost"`
	// Stored is the retained store's current occupancy (bounded FIFO).
	Stored int `json:"stored"`
}

// Stats snapshots the recorder's counters.
func (f *Flight) Stats() FlightStats {
	if f == nil {
		return FlightStats{}
	}
	return FlightStats{
		Spans:    f.spans.Load(),
		Finished: f.finished.Load(),
		Retained: f.retained.Load(),
		Dropped:  f.dropped.Load(),
		Lost:     f.lost.Load(),
		Stored:   f.store.len(),
	}
}
