package flow

import (
	"math"
	"testing"
	"time"

	"repro/internal/pcap"
	"repro/internal/telemetry"
)

// pkt builds a decoded TCP segment at ms milliseconds.
func pkt(ms int64, srcLast byte, srcPort uint16, dstLast byte, dstPort uint16, seq, ack uint32, flags uint8, payload int) *pcap.Packet {
	p := &pcap.Packet{
		UnixNano:   1_700_000_000e9 + ms*int64(time.Millisecond),
		SrcPort:    srcPort,
		DstPort:    dstPort,
		Seq:        seq,
		Ack:        ack,
		Flags:      flags,
		PayloadLen: payload,
	}
	copy(p.SrcIP[:], v4(srcLast))
	copy(p.DstIP[:], v4(dstLast))
	return p
}

func v4(last byte) []byte {
	return []byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 10, 0, 0, last}
}

// offlineTracker is a Tracker the way Reassemble runs it: idle expiry
// off, its sink collecting flows, and Finish returning them in capture
// order.
type offlineTracker struct {
	*Tracker
	flows []*FlowTrace
}

func newOfflineTracker(cfg Config) *offlineTracker {
	o := &offlineTracker{Tracker: NewTracker(cfg)}
	o.sink = func(f *FlowTrace) { o.flows = append(o.flows, f) }
	return o
}

func (o *offlineTracker) Finish() []*FlowTrace {
	o.Tracker.Finish()
	flows := o.flows
	o.flows = nil
	sortFlows(flows)
	return flows
}

func TestDirectionAndRounds(t *testing.T) {
	tr := newOfflineTracker(Config{defaultRTT: 100 * time.Millisecond})
	const mss = 100
	// Client 10.0.0.1:4000 -> server 10.0.0.2:80. No handshake: the
	// defaultRTT drives round bucketing (gap > 50ms splits rounds).
	seq := uint32(1000)
	send := func(ms int64, segs int) {
		for i := 0; i < segs; i++ {
			tr.Observe(pkt(ms, 2, 80, 1, 4000, seq, 1, pcap.FlagACK, mss))
			seq += mss
		}
	}
	send(0, 2)                                                    // round 1: w=2
	send(100, 4)                                                  // round 2: w=4
	send(200, 8)                                                  // round 3: w=8
	tr.Observe(pkt(300, 1, 4000, 2, 80, 1, seq, pcap.FlagACK, 0)) // pure ack, ignored for rounds

	flows := tr.Finish()
	if len(flows) != 1 {
		t.Fatalf("flows = %d", len(flows))
	}
	f := flows[0]
	if f.Server != "10.0.0.2:80" || f.Client != "10.0.0.1:4000" || f.ClientIP != "10.0.0.1" {
		t.Fatalf("endpoints: server %s client %s (%s)", f.Server, f.Client, f.ClientIP)
	}
	if f.Trace == nil || f.Trace.TimedOut {
		t.Fatalf("trace: %+v", f.Trace)
	}
	if want := []int{2, 4, 8}; len(f.Trace.Pre) != 3 || f.Trace.Pre[0] != 2 || f.Trace.Pre[1] != 4 || f.Trace.Pre[2] != 8 {
		t.Fatalf("pre = %v, want %v", f.Trace.Pre, want)
	}
	if f.MSS != mss {
		t.Fatalf("mss = %d (from max segment), want %d", f.MSS, mss)
	}
}

func TestTimeoutSplitsPrePost(t *testing.T) {
	tr := newOfflineTracker(Config{defaultRTT: 100 * time.Millisecond})
	const mss = 100
	base := uint32(1000)
	at := func(ms int64, seq uint32, n int) {
		for i := 0; i < n; i++ {
			tr.Observe(pkt(ms, 2, 80, 1, 4000, seq+uint32(i)*mss, 1, pcap.FlagACK, mss))
		}
	}
	at(0, base, 2)       // pre round 1: w=2
	at(100, base+200, 4) // pre round 2: w=4
	// Silence, then a retransmission of the last round's data: timeout.
	at(1300, base+200, 1) // post round 1: retransmit, w=0
	at(1400, base+600, 8) // post round 2: new data, w=8
	flows := tr.Finish()
	f := flows[0]
	if f.Trace == nil || !f.Trace.TimedOut {
		t.Fatalf("timeout not detected: %+v", f.Trace)
	}
	if len(f.Trace.Pre) != 2 || len(f.Trace.Post) != 2 {
		t.Fatalf("pre=%v post=%v", f.Trace.Pre, f.Trace.Post)
	}
	if f.Trace.Post[0] != 0 || f.Trace.Post[1] != 8 {
		t.Fatalf("post = %v, want [0 8]", f.Trace.Post)
	}
	if f.Retransmits != 1 {
		t.Fatalf("retransmits = %d", f.Retransmits)
	}
}

func TestHandshakeRTTDrivesBucketing(t *testing.T) {
	tr := newOfflineTracker(Config{})
	const mss = 100
	// Handshake: SYN at 0, SYN-ACK at 0, client ACK at 1000ms -> RTT 1s.
	syn := pkt(0, 1, 4000, 2, 80, 99, 0, pcap.FlagSYN, 0)
	syn.Opt = pcap.TCPOptions{HasMSS: true, MSS: mss}
	tr.Observe(syn)
	tr.Observe(pkt(0, 2, 80, 1, 4000, 999, 100, pcap.FlagSYN|pcap.FlagACK, 0))
	tr.Observe(pkt(1000, 1, 4000, 2, 80, 100, 1000, pcap.FlagACK, 0))
	// Two bursts 400ms apart: under the 1s RTT estimate (gap threshold
	// 500ms) they are ONE round; with the 200ms default they would split.
	tr.Observe(pkt(1100, 2, 80, 1, 4000, 1000, 101, pcap.FlagACK, mss))
	tr.Observe(pkt(1500, 2, 80, 1, 4000, 1000+mss, 101, pcap.FlagACK, mss))
	// A true round boundary.
	tr.Observe(pkt(2600, 2, 80, 1, 4000, 1000+2*mss, 101, pcap.FlagACK, mss))
	flows := tr.Finish()
	f := flows[0]
	if f.RTT != time.Second {
		t.Fatalf("rtt = %s, want 1s", f.RTT)
	}
	if !f.SawSYN {
		t.Fatal("handshake not recorded")
	}
	if len(f.Trace.Pre) != 2 || f.Trace.Pre[0] != 2 || f.Trace.Pre[1] != 1 {
		t.Fatalf("pre = %v, want [2 1]", f.Trace.Pre)
	}
}

func TestTimestampRTTFallback(t *testing.T) {
	tr := newOfflineTracker(Config{})
	const mss = 100
	// Mid-stream capture: no handshake. Data at t=0 carries TSVal 7;
	// the ack echoing it arrives 80ms later -> RTT sample 80ms.
	d := pkt(0, 2, 80, 1, 4000, 5000, 1, pcap.FlagACK, mss)
	d.Opt = pcap.TCPOptions{HasTS: true, TSVal: 7, TSEcr: 3}
	tr.Observe(d)
	a := pkt(80, 1, 4000, 2, 80, 1, 5000+mss, pcap.FlagACK, 0)
	a.Opt = pcap.TCPOptions{HasTS: true, TSVal: 4, TSEcr: 7}
	tr.Observe(a)
	flows := tr.Finish()
	if got := flows[0].RTT; got != 80*time.Millisecond {
		t.Fatalf("timestamp rtt = %s, want 80ms", got)
	}
}

func TestSequenceWraparound(t *testing.T) {
	tr := newOfflineTracker(Config{defaultRTT: 100 * time.Millisecond})
	const mss = 100
	start := uint32(0xffffff38) // 200 bytes below the wrap point
	tr.Observe(pkt(0, 2, 80, 1, 4000, start, 1, pcap.FlagACK, mss))
	tr.Observe(pkt(1, 2, 80, 1, 4000, start+mss, 1, pcap.FlagACK, mss)) // ends exactly at 0
	tr.Observe(pkt(100, 2, 80, 1, 4000, 0, 1, pcap.FlagACK, mss))       // wrapped
	tr.Observe(pkt(101, 2, 80, 1, 4000, mss, 1, pcap.FlagACK, mss))
	flows := tr.Finish()
	f := flows[0]
	if len(f.Trace.Pre) != 2 || f.Trace.Pre[0] != 2 || f.Trace.Pre[1] != 2 {
		t.Fatalf("pre = %v, want [2 2] across the wrap", f.Trace.Pre)
	}
	if f.Retransmits != 0 {
		t.Fatalf("wrap misread as retransmission: %d", f.Retransmits)
	}
}

func TestMaxFlowsEviction(t *testing.T) {
	tr := newOfflineTracker(Config{MaxFlows: 4})
	for i := 0; i < 10; i++ {
		tr.Observe(pkt(int64(i), 2, 80, 1, uint16(4000+i), 1, 1, pcap.FlagACK, 10))
	}
	if got := tr.Stats().Evicted; got != 6 {
		t.Fatalf("evicted = %d, want 6", got)
	}
	flows := tr.Finish()
	if len(flows) != 10 {
		t.Fatalf("flows = %d, want 10 (evicted flows still emitted)", len(flows))
	}
	if tr.Stats().Flows != 10 {
		t.Fatalf("flows seen = %d", tr.Stats().Flows)
	}
}

func TestMaxRoundsTruncation(t *testing.T) {
	tr := newOfflineTracker(Config{maxRounds: 3, defaultRTT: 10 * time.Millisecond})
	seq := uint32(0)
	for r := 0; r < 8; r++ {
		tr.Observe(pkt(int64(r*100), 2, 80, 1, 4000, seq, 1, pcap.FlagACK, 100))
		seq += 100
	}
	flows := tr.Finish()
	f := flows[0]
	if !f.Truncated || tr.Stats().Truncated != 1 {
		t.Fatalf("truncation not reported: %+v stats %+v", f, tr.Stats())
	}
	if len(f.Trace.Pre) != 3 {
		t.Fatalf("pre = %v, want 3 rounds", f.Trace.Pre)
	}
}

func TestMaxEmittedDropsFlows(t *testing.T) {
	tr := newOfflineTracker(Config{MaxFlows: 2, MaxEmitted: 3})
	for i := 0; i < 8; i++ {
		tr.Observe(pkt(int64(i), 2, 80, 1, uint16(4000+i), 1, 1, pcap.FlagACK, 10))
	}
	flows := tr.Finish()
	if len(flows) != 3 {
		t.Fatalf("emitted %d flows, want 3", len(flows))
	}
	if tr.Stats().Dropped != 5 {
		t.Fatalf("dropped = %d, want 5", tr.Stats().Dropped)
	}
}

// TestEmittedTracesAreIndependent pins the Clone contract: the tracker
// reuses one recorder, so emitted traces must not share storage.
func TestEmittedTracesAreIndependent(t *testing.T) {
	tr := newOfflineTracker(Config{defaultRTT: 100 * time.Millisecond})
	for port := uint16(4000); port < 4002; port++ {
		seq := uint32(1000)
		n := int(port-4000)*3 + 2
		for i := 0; i < n; i++ {
			tr.Observe(pkt(int64(port-4000), 2, 80, 1, port, seq, 1, pcap.FlagACK, 100))
			seq += 100
		}
	}
	flows := tr.Finish()
	if len(flows) != 2 {
		t.Fatalf("flows = %d", len(flows))
	}
	if flows[0].Trace.Pre[0] == flows[1].Trace.Pre[0] {
		t.Fatalf("distinct flows decoded identically: %v vs %v", flows[0].Trace.Pre, flows[1].Trace.Pre)
	}
}

// TestMaxFlowsNeverExceedsBound pins the evict-before-insert fix: the
// tracker previously evicted only after insertion, so it briefly held
// MaxFlows+1 live flows, contradicting the Config.MaxFlows doc.
func TestMaxFlowsNeverExceedsBound(t *testing.T) {
	tr := NewTracker(Config{MaxFlows: 4})
	for i := 0; i < 10; i++ {
		tr.Observe(pkt(int64(i), 2, 80, 1, uint16(4000+i), 1, 1, pcap.FlagACK, 10))
		if live := tr.Live(); live > 4 {
			t.Fatalf("live flows = %d after packet %d, want <= 4", live, i)
		}
	}
	if got := tr.Stats().LiveHighWater; got != 4 {
		t.Fatalf("live high water = %d, want 4", got)
	}
}

// TestTimestampEchoZeroTSval pins the RFC 7323 fix: a peer whose
// timestamp clock starts at 0 sends TSVal 0, and the echo carrying
// TSecr 0 is a legitimate RTT sample, not "no echo".
func TestTimestampEchoZeroTSval(t *testing.T) {
	tr := newOfflineTracker(Config{})
	const mss = 100
	d := pkt(0, 2, 80, 1, 4000, 5000, 1, pcap.FlagACK, mss)
	d.Opt = pcap.TCPOptions{HasTS: true, TSVal: 0, TSEcr: 3}
	tr.Observe(d)
	a := pkt(80, 1, 4000, 2, 80, 1, 5000+mss, pcap.FlagACK, 0)
	a.Opt = pcap.TCPOptions{HasTS: true, TSVal: 4, TSEcr: 0}
	tr.Observe(a)
	flows := tr.Finish()
	if got := flows[0].RTT; got != 80*time.Millisecond {
		t.Fatalf("timestamp rtt with TSval 0 = %s, want 80ms", got)
	}
}

// TestTimestampEchoIgnoredWithoutACK pins the other half of the RFC 7323
// rule: TSecr is undefined on segments without ACK, so a SYN whose echo
// field happens to match the peer's TSVal must not produce a sample.
func TestTimestampEchoIgnoredWithoutACK(t *testing.T) {
	tr := newOfflineTracker(Config{})
	d := pkt(0, 2, 80, 1, 4000, 5000, 0, 0, 100) // no ACK flag
	d.Opt = pcap.TCPOptions{HasTS: true, TSVal: 9, TSEcr: 0}
	tr.Observe(d)
	e := pkt(80, 1, 4000, 2, 80, 1, 0, pcap.FlagSYN, 0) // SYN, no ACK
	e.Opt = pcap.TCPOptions{HasTS: true, TSVal: 4, TSEcr: 9}
	tr.Observe(e)
	flows := tr.Finish()
	if got := flows[0].RTT; got != 0 {
		t.Fatalf("rtt from ACK-less echo = %s, want 0", got)
	}
}

// TestMaxEmittedKeepsEarliest pins the drop policy the Config doc now
// states: once MaxEmitted flows have been emitted, later-finishing flows
// are dropped, so the earliest-finishing (oldest) flows are kept.
func TestMaxEmittedKeepsEarliest(t *testing.T) {
	tr := newOfflineTracker(Config{MaxFlows: 2, MaxEmitted: 3})
	for i := 0; i < 8; i++ {
		tr.Observe(pkt(int64(i), 2, 80, 1, uint16(4000+i), 1, 1, pcap.FlagACK, 10))
	}
	flows := tr.Finish()
	if len(flows) != 3 {
		t.Fatalf("emitted %d flows, want 3", len(flows))
	}
	for i, f := range flows {
		want := "10.0.0.1:" + itoa(4000+i)
		if f.Client != want {
			t.Fatalf("kept flow %d = %s, want %s (earliest-finishing kept)", i, f.Client, want)
		}
	}
}

func itoa(n int) string {
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// TestMaxEmittedNegativeUnbounded pins the streaming escape hatch:
// MaxEmitted < 0 disables the cap entirely.
func TestMaxEmittedNegativeUnbounded(t *testing.T) {
	tr := newOfflineTracker(Config{MaxFlows: 2, MaxEmitted: -1})
	for i := 0; i < 8; i++ {
		tr.Observe(pkt(int64(i), 2, 80, 1, uint16(4000+i), 1, 1, pcap.FlagACK, 10))
	}
	flows := tr.Finish()
	if len(flows) != 8 || tr.Stats().Dropped != 0 {
		t.Fatalf("emitted %d flows (dropped %d), want all 8", len(flows), tr.Stats().Dropped)
	}
}

// TestIdleExpiryEmitsMidStream exercises idle expiry: a flow that goes
// quiet is emitted by an epoch sweep while the stream is still running,
// long before Finish.
func TestIdleExpiryEmitsMidStream(t *testing.T) {
	tr := NewTracker(Config{epoch: time.Second, idleRTTs: 8, defaultRTT: 100 * time.Millisecond})
	var m TrackerMetrics
	m.Live = &telemetry.Gauge{}
	m.LiveHighWater = &telemetry.Gauge{}
	m.Epochs = &telemetry.Counter{}
	m.Expired = &telemetry.Counter{}
	tr.Instrument(&m)
	var emitted []*FlowTrace
	tr.sink, tr.expiry = func(f *FlowTrace) { emitted = append(emitted, f) }, true

	// Flow A: two packets, then silence. Threshold max(8x100ms, 1s) = 1s.
	tr.Observe(pkt(0, 2, 80, 1, 4000, 100, 1, pcap.FlagACK, 100))
	tr.Observe(pkt(50, 2, 80, 1, 4000, 200, 1, pcap.FlagACK, 100))
	// Flow B keeps the clock moving for 5 captured seconds.
	seq := uint32(0)
	for ms := int64(100); ms <= 5000; ms += 100 {
		tr.Observe(pkt(ms, 2, 80, 1, 5000, seq, 1, pcap.FlagACK, 100))
		seq += 100
	}
	if len(emitted) != 1 {
		t.Fatalf("mid-stream emissions = %d, want 1 (flow A expired)", len(emitted))
	}
	if emitted[0].Client != "10.0.0.1:4000" {
		t.Fatalf("expired flow = %s, want flow A", emitted[0].Client)
	}
	st := tr.Stats()
	if st.Expired != 1 || st.Epochs == 0 {
		t.Fatalf("stats = %+v, want Expired 1 and Epochs > 0", st)
	}
	if m.Live.Load() != 1 || m.Expired.Load() != 1 || m.Epochs.Load() == 0 {
		t.Fatalf("metrics live=%d expired=%d epochs=%d", m.Live.Load(), m.Expired.Load(), m.Epochs.Load())
	}
	tr.Finish()
	if len(emitted) != 2 {
		t.Fatalf("total emissions = %d, want 2 (Finish drains flow B)", len(emitted))
	}
	if m.Live.Load() != 0 {
		t.Fatalf("live gauge after Finish = %d, want 0", m.Live.Load())
	}
}

// TestIdleResumeSplitsFlow pins the idle-expiry split semantic: packets
// arriving after a flow's own expiry window start a fresh flow,
// independent of epoch phase.
func TestIdleResumeSplitsFlow(t *testing.T) {
	tr := NewTracker(Config{epoch: time.Second, idleRTTs: 8, defaultRTT: 100 * time.Millisecond})
	var emitted []*FlowTrace
	tr.sink, tr.expiry = func(f *FlowTrace) { emitted = append(emitted, f) }, true
	tr.Observe(pkt(0, 2, 80, 1, 4000, 100, 1, pcap.FlagACK, 100))
	// Resumes 3s later, past the 1s threshold: must split.
	tr.Observe(pkt(3000, 2, 80, 1, 4000, 200, 1, pcap.FlagACK, 100))
	tr.Finish()
	if len(emitted) != 2 {
		t.Fatalf("flows = %d, want 2 (idle resume splits)", len(emitted))
	}
	if tr.Stats().Flows != 2 || tr.Stats().Expired != 1 {
		t.Fatalf("stats = %+v", tr.Stats())
	}
}

func TestPairUnpairedInvalid(t *testing.T) {
	// A lone no-timeout flow pairs with nothing and classifies invalid.
	tr := newOfflineTracker(Config{defaultRTT: 100 * time.Millisecond})
	tr.Observe(pkt(0, 2, 80, 1, 4000, 0, 1, pcap.FlagACK, 100))
	pairs := Pair(tr.Finish())
	if len(pairs) != 1 || pairs[0].B != nil {
		t.Fatalf("pairs = %+v", pairs)
	}
}

// TestTrackerClockMatchesTime pins the tracker's int64 capture clock
// (pcap.Packet.UnixNano) to the time.Time arithmetic it replaces: in
// range, differences equal Sub and the round trip back to FlowTrace
// times is bit-equal; between the saturated readings, differences
// saturate as Sub does. The decoder's side, how a record's timestamp
// becomes that clock, is pinned by pcap's TestUnixNanoMatchesExact.
func TestTrackerClockMatchesTime(t *testing.T) {
	times := []time.Time{
		time.Unix(0, 0).UTC(),
		time.Unix(-1, 999_999_999).UTC(),
		time.Unix(1700000000, 123456789).UTC(),
		time.Unix(0, math.MaxInt64).UTC(),
		time.Unix(0, math.MinInt64+1).UTC(),
	}
	for _, a := range times {
		if got := timeOf(a.UnixNano()); got != a {
			t.Fatalf("round trip of %v gave %v", a, got)
		}
		for _, b := range times {
			if got, want := since(a.UnixNano(), b.UnixNano()), a.Sub(b); got != want {
				t.Fatalf("since(%v, %v) = %v, Sub gives %v", a, b, got, want)
			}
		}
	}
	far, past := time.Unix(1<<40, 0), time.Unix(-1<<40, 0)
	if since(math.MaxInt64, math.MinInt64) != far.Sub(past) || since(math.MinInt64, math.MaxInt64) != past.Sub(far) {
		t.Fatal("differences across the whole clock range did not saturate like Sub")
	}
	if got := timeOf(math.MinInt64); got != (time.Time{}) {
		t.Fatalf("a record without a timestamp maps to %v, not the zero Time", got)
	}
}

// TestFlowKeySideMatchesKeyOf pins the last-flow fast path to the map
// path: for both directions of a flow, self-connections included, the
// key's side agrees with keyOf, and other flows miss.
func TestFlowKeySideMatchesKeyOf(t *testing.T) {
	for _, p := range []*pcap.Packet{
		pkt(0, 1, 4000, 2, 80, 1, 1, pcap.FlagACK, 0),
		pkt(0, 2, 80, 1, 4000, 1, 1, pcap.FlagACK, 0),
		pkt(0, 1, 80, 1, 4000, 1, 1, pcap.FlagACK, 0),
		pkt(0, 1, 80, 1, 80, 1, 1, pcap.FlagACK, 0),
	} {
		key, dir := keyOf(p)
		rev := *p
		rev.SrcIP, rev.SrcPort, rev.DstIP, rev.DstPort = p.DstIP, p.DstPort, p.SrcIP, p.SrcPort
		rkey, rdir := keyOf(&rev)
		if rkey != key {
			t.Fatalf("%s: reverse direction normalized to another key", p.Src())
		}
		if got := key.side(p); got != dir {
			t.Fatalf("%s -> %s: side %d, keyOf dir %d", p.Src(), p.Dst(), got, dir)
		}
		if got := key.side(&rev); got != rdir {
			t.Fatalf("%s -> %s: side %d, keyOf dir %d", rev.Src(), rev.Dst(), got, rdir)
		}
		other := *p
		other.SrcPort++
		if got := key.side(&other); got != -1 {
			t.Fatalf("packet on another flow matched side %d", got)
		}
	}
}
