// Package flow reconstructs congestion window traces from passively
// captured TCP traffic: it tracks per-4-tuple flows with bounded memory,
// estimates the path RTT (handshake, then TCP timestamps), buckets each
// direction's data segments into RTT rounds, detects the
// retransmission-after-silence signature of a retransmission timeout, and
// emits the per-round delivered-window series as trace.Trace values --
// the same shape the active prober gathers -- so the existing feature /
// classifier pipeline consumes captured traffic unchanged.
//
// Reconstruction is exact on clean paths (see the round-trip tests
// against internal/pcapgen) and heuristic under impairment; DESIGN.md §7
// documents the failure modes (mid-stream captures without a handshake
// mis-bucket the first rounds, packet loss between server and capture
// point inflates windows, fast-retransmit storms can read as timeouts).
package flow

import (
	"bytes"
	"math"
	"sort"
	"time"

	"repro/internal/pcap"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Config bounds a Tracker. The zero value selects the defaults.
type Config struct {
	// MaxFlows bounds concurrently tracked flows; beyond it the
	// least-recently-active flow is emitted early (default 4096).
	MaxFlows int
	// MaxEmitted bounds the flows a single capture may emit: once the cap
	// fills, every flow that finishes later is dropped and counted, so
	// the earliest-finishing flows are the ones kept. Negative disables
	// the bound (Stream hands flows off as they close, so nothing
	// accumulates). Default 65536.
	MaxEmitted int

	// The fields below always run at their defaults outside this
	// package; its tests set them to drive small cases.

	// maxRounds bounds recorded rounds per flow direction; beyond it the
	// flow keeps counting packets but stops recording windows and is
	// marked truncated (default 256 -- a full probe gathering needs ~60).
	maxRounds int
	// defaultRTT seeds round bucketing when a flow has neither a
	// handshake nor usable TCP timestamps (default 200ms).
	defaultRTT time.Duration
	// minRoundGap floors the round-boundary gap so sub-millisecond RTT
	// estimates cannot split bursts (default 2ms).
	minRoundGap time.Duration
	// epoch is the idle-expiry sweep cadence of a streaming tracker
	// (see Stream): every epoch of capture time the tracker walks
	// its LRU tail and emits flows idle past their own expiry threshold.
	// It also floors that threshold, so a sweep never expires a flow
	// whose silence an in-order sweep could not yet have observed.
	// Ignored offline, where idle expiry is off. Default 1s.
	epoch time.Duration
	// idleRTTs scales the per-flow idle-expiry threshold of a streaming
	// tracker: a flow expires after max(idleRTTs x RTT, epoch) of
	// silence, where RTT is the flow's estimate (defaultRTT when
	// unknown). Default 8.
	idleRTTs int
}

func (c Config) withDefaults() Config {
	if c.MaxFlows <= 0 {
		c.MaxFlows = 4096
	}
	if c.maxRounds <= 0 {
		c.maxRounds = 256
	}
	if c.MaxEmitted == 0 {
		c.MaxEmitted = 65536
	}
	if c.defaultRTT <= 0 {
		c.defaultRTT = 200 * time.Millisecond
	}
	if c.minRoundGap <= 0 {
		c.minRoundGap = 2 * time.Millisecond
	}
	if c.epoch <= 0 {
		c.epoch = time.Second
	}
	if c.idleRTTs <= 0 {
		c.idleRTTs = 8
	}
	return c
}

// endpoint is one side of a connection.
type endpoint struct {
	ip   [16]byte
	port uint16
}

func (e endpoint) String() string {
	var p pcap.Packet
	p.SrcIP, p.SrcPort = e.ip, e.port
	return p.Src()
}

// flowKey is the direction-normalized 4-tuple.
type flowKey struct {
	a, b endpoint
}

// keyOf normalizes the packet's endpoints; dir reports which key side the
// packet came from (0 = a, 1 = b).
func keyOf(p *pcap.Packet) (flowKey, int) {
	src := endpoint{p.SrcIP, p.SrcPort}
	dst := endpoint{p.DstIP, p.DstPort}
	if less(src, dst) {
		return flowKey{src, dst}, 0
	}
	return flowKey{dst, src}, 1
}

func less(x, y endpoint) bool {
	if c := bytes.Compare(x.ip[:], y.ip[:]); c != 0 {
		return c < 0
	}
	return x.port < y.port
}

// side reports which key side sent p (0 = a, 1 = b), or -1 when p is
// not on this flow. Side b is checked first so a self-connection (a ==
// b) answers as keyOf does.
func (k *flowKey) side(p *pcap.Packet) int {
	if p.SrcPort == k.b.port && p.DstPort == k.a.port && p.SrcIP == k.b.ip && p.DstIP == k.a.ip {
		return 1
	}
	if p.SrcPort == k.a.port && p.DstPort == k.b.port && p.SrcIP == k.a.ip && p.DstIP == k.b.ip {
		return 0
	}
	return -1
}

// The tracker's clock is capture time as int64 Unix nanoseconds:
// converted once per packet, it keeps time.Time arithmetic off the
// per-packet path.
var (
	minClock = time.Unix(0, math.MinInt64)
	maxClock = time.Unix(0, math.MaxInt64)
)

// clockOf converts a capture timestamp to the tracker clock. Timestamps
// outside the int64 nanosecond range (hostile pcapng) saturate, as does
// the zero Time that pcapng simple packet blocks carry.
func clockOf(t time.Time) int64 {
	if sec := t.Unix(); sec > math.MinInt64/1_000_000_000 && sec < math.MaxInt64/1_000_000_000 {
		return sec*1e9 + int64(t.Nanosecond())
	}
	switch {
	case t.Before(minClock):
		return math.MinInt64
	case t.After(maxClock):
		return math.MaxInt64
	}
	return t.UnixNano()
}

// timeOf converts a tracker clock reading back to the capture timestamp
// it came from; the saturated low end maps back to the zero Time.
func timeOf(ns int64) time.Time {
	if ns == math.MinInt64 {
		return time.Time{}
	}
	return time.Unix(0, ns).UTC()
}

// since is now-then on the tracker clock, saturating like time.Time.Sub.
func since(now, then int64) time.Duration {
	d := now - then
	if (now^then)&(now^d) < 0 {
		if now < 0 {
			return math.MinInt64
		}
		return math.MaxInt64
	}
	return time.Duration(d)
}

// seqLT is the wraparound-safe sequence comparison.
func seqLT(a, b uint32) bool { return int32(a-b) < 0 }

// round is one reconstructed RTT round of a direction.
type round struct {
	// newBytes is how far the direction's delivery high-water mark
	// advanced during the round: the passive equivalent of the prober's
	// per-round window measurement w = maxSeq(r) - maxSeq(r-1).
	newBytes int64
	packets  int
	retx     int
	// retxStart marks a round whose first segment was a retransmission:
	// after a round boundary's worth of silence this is the signature of
	// a retransmission timeout.
	retxStart bool
}

// dirState tracks one direction of a flow.
type dirState struct {
	packets   int64
	dataBytes int64 // payload bytes seen (including retransmissions)
	retx      int64

	haveSeq bool
	highSeq uint32 // delivery high-water mark (max seq+len seen)

	mssOpt    uint16 // MSS option from this direction's SYN
	maxSegLen int

	rounds       []round
	cur          round
	curOpen      bool
	lastData     int64
	timeoutRound int // index into rounds of the first post-timeout round, -1
	truncated    bool

	// TCP timestamp state for RTT sampling: the newest TSVal this
	// direction sent and when it was first seen.
	tsVal     uint32
	tsValAt   int64
	tsValSeen bool
}

// state is one tracked flow. Flows form an LRU list for bounded-memory
// eviction.
type state struct {
	key   flowKey
	first int64 // tracker clock
	last  int64

	// Handshake RTT estimation.
	synDir    int // which key side sent the SYN (the client)
	sawSYN    bool
	synAt     int64
	sawSynAck bool
	hsRTT     time.Duration
	tsRTT     time.Duration // minimum timestamp-echo RTT sample
	sawFIN    bool
	sawRST    bool

	dirs [2]dirState

	prev, next *state // LRU links (most recent at head)
}

// rtt returns the flow's best RTT estimate (0 when unknown).
func (s *state) rtt() time.Duration {
	if s.hsRTT > 0 {
		return s.hsRTT
	}
	return s.tsRTT
}

// Stats counts tracker-level events for ingest health reporting.
type Stats struct {
	// Flows is every distinct 4-tuple seen.
	Flows int64
	// Evicted counts flows emitted early because MaxFlows was exceeded.
	Evicted int64
	// Dropped counts flows discarded entirely because MaxEmitted was
	// exceeded.
	Dropped int64
	// Truncated counts flows whose round recording hit maxRounds.
	Truncated int64
	// LiveHighWater is the most flows ever tracked at once; it never
	// exceeds MaxFlows.
	LiveHighWater int64
	// Epochs counts idle-expiry sweeps run by a streaming tracker.
	Epochs int64
	// Expired counts flows emitted by idle expiry.
	Expired int64
}

// TrackerMetrics publishes live tracker state through shared telemetry
// instruments, safe to read from other goroutines while the tracker
// runs. Several trackers (one per concurrent stream) may share one
// TrackerMetrics; the gauges then aggregate across them. All fields are
// optional.
type TrackerMetrics struct {
	// Live is the number of currently tracked flows.
	Live *telemetry.Gauge
	// LiveHighWater is the most flows ever tracked at once.
	LiveHighWater *telemetry.Gauge
	// Epochs counts idle-expiry sweeps.
	Epochs *telemetry.Counter
	// Expired counts flows emitted by idle expiry.
	Expired *telemetry.Counter
}

// Tracker reassembles flows from a packet stream. Feed packets with
// Observe, then call Finish to drain the flows still open. Every
// finished flow -- evicted, idle-expired, or drained -- goes to the
// tracker's one sink, synchronously and in close order: Stream's sink
// runs with idle expiry on, Reassemble's with it off, and a bare
// NewTracker discards its flows. Memory is bounded by MaxFlows live
// flows, maxRounds rounds each, and MaxEmitted finished flows,
// regardless of capture size. Not safe for concurrent use.
type Tracker struct {
	cfg   Config
	flows map[flowKey]*state
	head  *state // most recently active
	tail  *state
	stats Stats
	rec   trace.Recorder // reused build buffer; emitted traces are Clones

	// sink receives every finished flow. expiry turns on idle expiry:
	// flows idle past their threshold close on epoch sweeps instead of
	// waiting for eviction or Finish.
	sink    func(*FlowTrace)
	expiry  bool
	emitted int64 // flows emitted so far, for the MaxEmitted bound
	// epochAt is the tracker clock when the current epoch started, valid
	// once epochSet (Unix 0 is a valid capture time).
	epochAt  int64
	epochSet bool
	metrics  *TrackerMetrics

	// hot is the previous packet's flow: consecutive packets almost
	// always share a flow, so Observe checks it before normalizing the
	// key and probing the map. emit clears it.
	hot *state
}

// NewTracker returns a tracker with the given bounds, idle expiry off,
// and a sink that discards flows.
func NewTracker(cfg Config) *Tracker {
	return &Tracker{cfg: cfg.withDefaults(), flows: map[flowKey]*state{}, sink: func(*FlowTrace) {}}
}

// Stats returns the running tracker counters.
func (t *Tracker) Stats() Stats { return t.stats }

// Live returns the number of currently tracked flows. Like every other
// method it must run on the tracker's own goroutine; cross-goroutine
// observation goes through Instrument.
func (t *Tracker) Live() int { return len(t.flows) }

// Instrument publishes tracker state through m's shared instruments (see
// TrackerMetrics). Call before the first Observe.
func (t *Tracker) Instrument(m *TrackerMetrics) { t.metrics = m }

// Observe feeds one decoded TCP segment.
func (t *Tracker) Observe(p *pcap.Packet) {
	now := clockOf(p.Time)
	var key flowKey
	s, dir := t.hot, -1
	if s != nil {
		dir = s.key.side(p)
	}
	if dir < 0 {
		key, dir = keyOf(p)
		s = t.flows[key]
	}
	if t.expiry {
		// A flow resuming after its own idle-expiry window was already
		// conceptually emitted -- close it out and let the resumption
		// start a fresh flow. This keeps the split independent of epoch
		// phase and of other traffic.
		if s != nil {
			if idle := since(now, s.last); idle >= t.cfg.epoch && idle >= t.idleAfter(s) {
				key = s.key
				t.expire(s)
				s = nil
			}
		}
		t.sweep(now)
	}
	if s == nil {
		// Evict before inserting so live flows never exceed MaxFlows.
		if len(t.flows) >= t.cfg.MaxFlows {
			t.evictOldest()
		}
		t.stats.Flows++
		s = &state{key: key, first: now, synDir: -1}
		s.dirs[0].timeoutRound = -1
		s.dirs[1].timeoutRound = -1
		t.flows[key] = s
		t.lruPush(s)
		if live := int64(len(t.flows)); live > t.stats.LiveHighWater {
			t.stats.LiveHighWater = live
		}
		if m := t.metrics; m != nil {
			if m.Live != nil {
				live := m.Live.Add(1)
				if m.LiveHighWater != nil {
					m.LiveHighWater.SetMax(live)
				}
			}
		}
	} else {
		t.lruTouch(s)
	}
	t.hot = s
	s.last = now
	t.observeFlow(s, p, dir, now)
}

// idleAfter is the flow's idle-expiry threshold: idleRTTs round trips
// of silence, floored by the sweep cadence.
func (t *Tracker) idleAfter(s *state) time.Duration {
	rtt := s.rtt()
	if rtt <= 0 {
		rtt = t.cfg.defaultRTT
	}
	idle := time.Duration(t.cfg.idleRTTs) * rtt
	if idle < rtt { // overflow on absurd capture-claimed RTTs
		idle = math.MaxInt64
	}
	if idle < t.cfg.epoch {
		idle = t.cfg.epoch
	}
	return idle
}

// sweep runs the epoch idle-expiry pass when an epoch of capture time
// has elapsed: walking from the LRU tail (least recently active first),
// it emits every flow idle past its own threshold and stops at the
// first flow idle less than epoch, which floors every threshold.
func (t *Tracker) sweep(now int64) {
	d := since(now, t.epochAt)
	if !t.epochSet || d < 0 {
		// First packet, or capture time stepped backwards: re-anchor. The
		// zero Time leaves the epoch unanchored.
		t.epochAt = now
		t.epochSet = now != math.MinInt64
		return
	}
	if d < t.cfg.epoch {
		return
	}
	t.epochAt = now
	t.stats.Epochs++
	if m := t.metrics; m != nil && m.Epochs != nil {
		m.Epochs.Add(1)
	}
	for cur := t.tail; cur != nil; {
		idle := since(now, cur.last)
		if idle < t.cfg.epoch {
			break
		}
		prev := cur.prev
		if idle >= t.idleAfter(cur) {
			t.expire(cur)
		}
		cur = prev
	}
}

// expire emits one flow through the idle-expiry path.
func (t *Tracker) expire(s *state) {
	t.stats.Expired++
	if m := t.metrics; m != nil && m.Expired != nil {
		m.Expired.Add(1)
	}
	t.emit(s)
}

// observeFlow updates one flow's state with a segment from key side dir.
// now is p.Time on the tracker clock.
func (t *Tracker) observeFlow(s *state, p *pcap.Packet, dir int, now int64) {
	d := &s.dirs[dir]
	d.packets++
	if p.RST() {
		s.sawRST = true
	}
	if p.FIN() {
		s.sawFIN = true
	}

	// Handshake tracking for the RTT estimate and client identification.
	switch {
	case p.SYN() && !p.ACK():
		if !s.sawSYN {
			s.sawSYN = true
			s.synDir = dir
			s.synAt = now
		}
	case p.SYN() && p.ACK():
		if s.sawSYN && dir != s.synDir {
			s.sawSynAck = true
		}
	case p.ACK() && s.sawSynAck && s.hsRTT == 0 && dir == s.synDir:
		if rtt := since(now, s.synAt); rtt > 0 {
			s.hsRTT = rtt
		}
	}
	if p.SYN() && p.Opt.HasMSS {
		d.mssOpt = p.Opt.MSS
	}

	// Timestamp-echo RTT samples: this segment echoes the peer's newest
	// TSVal, so the elapsed time since the peer first sent it is one RTT.
	// The echo field is only defined on segments with ACK set (RFC 7323
	// §3.2); gating on that instead of TSEcr != 0 keeps samples from
	// peers whose timestamp clock starts at or wraps through zero.
	peer := &s.dirs[1-dir]
	if p.Opt.HasTS {
		if p.ACK() && peer.tsValSeen && p.Opt.TSEcr == peer.tsVal {
			if sample := since(now, peer.tsValAt); sample > 0 && (s.tsRTT == 0 || sample < s.tsRTT) {
				s.tsRTT = sample
			}
		}
		if !d.tsValSeen || p.Opt.TSVal != d.tsVal {
			d.tsVal = p.Opt.TSVal
			d.tsValAt = now
			d.tsValSeen = true
		}
	}

	// Sequence tracking: only data segments advance the high-water mark
	// and the round series.
	if p.PayloadLen <= 0 {
		if p.SYN() && !d.haveSeq {
			d.haveSeq = true
			d.highSeq = p.Seq + 1
		}
		return
	}
	if p.PayloadLen > d.maxSegLen {
		d.maxSegLen = p.PayloadLen
	}
	d.dataBytes += int64(p.PayloadLen)
	end := p.Seq + uint32(p.PayloadLen)
	if !d.haveSeq {
		d.haveSeq = true
		d.highSeq = p.Seq
	}
	retx := seqLT(p.Seq, d.highSeq)
	if retx {
		d.retx++
	}
	var advance int64
	if seqLT(d.highSeq, end) {
		advance = int64(end - d.highSeq)
		d.highSeq = end
	}
	t.bucket(s, d, now, advance, retx)
	d.lastData = now
}

// bucket assigns one data segment to an RTT round, opening a new round
// after a round boundary's worth of silence.
func (t *Tracker) bucket(s *state, d *dirState, at, advance int64, retx bool) {
	if d.curOpen && since(at, d.lastData) > t.roundGap(s) {
		t.closeRound(d)
	}
	if !d.curOpen {
		d.curOpen = true
		d.cur = round{retxStart: retx}
		// A round that opens with a retransmission, after the silence
		// that the round boundary implies, is the timeout signature. Only
		// the first such round splits the trace.
		if retx && d.timeoutRound < 0 && (len(d.rounds) > 0 || d.truncated) {
			d.timeoutRound = len(d.rounds)
		}
	}
	d.cur.packets++
	d.cur.newBytes += advance
	if retx {
		d.cur.retx++
	}
}

// closeRound archives the open round, subject to the maxRounds bound.
func (t *Tracker) closeRound(d *dirState) {
	if !d.curOpen {
		return
	}
	d.curOpen = false
	if len(d.rounds) >= t.cfg.maxRounds {
		if !d.truncated {
			d.truncated = true
			t.stats.Truncated++
		}
		return
	}
	d.rounds = append(d.rounds, d.cur)
}

// roundGap is the silence that separates two RTT rounds: half the flow's
// RTT estimate, floored by minRoundGap.
func (t *Tracker) roundGap(s *state) time.Duration {
	rtt := s.rtt()
	if rtt <= 0 {
		rtt = t.cfg.defaultRTT
	}
	gap := rtt / 2
	if gap < t.cfg.minRoundGap {
		gap = t.cfg.minRoundGap
	}
	return gap
}

// Finish drains every remaining flow to the sink, least recently
// active first, and resets the tracker for the next capture.
func (t *Tracker) Finish() {
	for t.tail != nil {
		t.emit(t.tail)
	}
	t.flows = map[flowKey]*state{}
	t.emitted = 0
	t.epochSet = false
}

// evictOldest emits the least-recently-active flow to enforce MaxFlows.
func (t *Tracker) evictOldest() {
	if t.tail == nil {
		return
	}
	t.stats.Evicted++
	t.emit(t.tail)
}

// emit finalizes one flow into a FlowTrace, removes it from the
// tracker, and hands it to the sink. Once MaxEmitted flows have been
// emitted, later-finishing flows are dropped (the earliest-finishing
// flows are the ones kept).
func (t *Tracker) emit(s *state) {
	if t.hot == s {
		t.hot = nil
	}
	t.lruRemove(s)
	delete(t.flows, s.key)
	if m := t.metrics; m != nil && m.Live != nil {
		m.Live.Add(-1)
	}
	if t.cfg.MaxEmitted >= 0 && t.emitted >= int64(t.cfg.MaxEmitted) {
		t.stats.Dropped++
		return
	}
	t.emitted++
	t.sink(t.finalize(s))
}

// sortFlows restores capture order: flows by first activity, ties
// broken by endpoint strings so output is deterministic.
func sortFlows(fs []*FlowTrace) {
	sort.SliceStable(fs, func(i, j int) bool { return flowLess(fs[i], fs[j]) })
}

func flowLess(x, y *FlowTrace) bool {
	if !x.Start.Equal(y.Start) {
		return x.Start.Before(y.Start)
	}
	if x.Server != y.Server {
		return x.Server < y.Server
	}
	return x.Client < y.Client
}

// lruPush inserts s at the head (most recent).
func (t *Tracker) lruPush(s *state) {
	s.prev = nil
	s.next = t.head
	if t.head != nil {
		t.head.prev = s
	}
	t.head = s
	if t.tail == nil {
		t.tail = s
	}
}

func (t *Tracker) lruTouch(s *state) {
	if t.head == s {
		return
	}
	t.lruRemove(s)
	t.lruPush(s)
}

func (t *Tracker) lruRemove(s *state) {
	if s.prev != nil {
		s.prev.next = s.next
	} else if t.head == s {
		t.head = s.next
	}
	if s.next != nil {
		s.next.prev = s.prev
	} else if t.tail == s {
		t.tail = s.prev
	}
	s.prev, s.next = nil, nil
}
