package flow

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math/rand"
	"net/netip"
	"reflect"
	"sort"
	"testing"
	"testing/iotest"
	"time"

	"repro/internal/pcap"
	"repro/internal/pcapgen"
	"repro/internal/telemetry"
)

// pktEvent is one generated capture packet, before time-sorting.
type pktEvent struct {
	at    time.Duration
	spec  pcap.FrameSpec
	order int
}

// synthCapture generates a multi-flow classic pcap from a seed: flows
// with handshakes, data rounds, and occasional timeout signatures,
// interleaved in time. Without gaps every intra-flow gap stays under
// 900ms -- below the smallest idle-expiry threshold (1s) -- so the
// stream with idle expiry on and offline reconstruction must agree
// exactly. With gaps, about a third of the flows also go silent once
// between data rounds for longer than their idle threshold,
// max(idleRTTs x RTT, epoch) at the defaults, which the stream splits
// and offline does not; long counts them.
func synthCapture(seed int64, nflows int, gaps bool) (data []byte, long int) {
	rng := rand.New(rand.NewSource(seed))
	base := time.Unix(1700000000, 0).UTC()
	var events []pktEvent
	order := 0
	add := func(at time.Duration, spec pcap.FrameSpec) {
		events = append(events, pktEvent{at: at, spec: spec, order: order})
		order++
	}
	for f := 0; f < nflows; f++ {
		// A handful of (client, server) groups so pairing has material.
		client := netip.AddrPortFrom(netip.AddrFrom4([4]byte{10, 0, byte(1 + f%4), byte(10 + f%50)}), uint16(40000+f))
		server := netip.AddrPortFrom(netip.AddrFrom4([4]byte{192, 168, 0, byte(1 + f%3)}), 80)
		start := time.Duration(rng.Intn(20000)) * time.Millisecond
		rtt := time.Duration(100+rng.Intn(200)) * time.Millisecond
		mss := uint16(500 + rng.Intn(1000))

		// Handshake.
		add(start, pcap.FrameSpec{Src: client, Dst: server, Seq: 0, Flags: pcap.FlagSYN,
			Opt: pcap.TCPOptions{HasMSS: true, MSS: mss}})
		add(start+rtt/2, pcap.FrameSpec{Src: server, Dst: client, Seq: 0, Ack: 1,
			Flags: pcap.FlagSYN | pcap.FlagACK, Opt: pcap.TCPOptions{HasMSS: true, MSS: mss}})
		add(start+rtt, pcap.FrameSpec{Src: client, Dst: server, Seq: 1, Ack: 1, Flags: pcap.FlagACK})

		// Data rounds from the server.
		at := start + rtt + time.Duration(rng.Intn(20))*time.Millisecond
		seq := uint32(1)
		w := 2
		rounds := 3 + rng.Intn(6)
		gapAfter := -1
		if gaps && rng.Intn(3) == 0 {
			gapAfter = rng.Intn(rounds - 1)
			long++
		}
		for r := 0; r < rounds; r++ {
			for i := 0; i < w; i++ {
				add(at+time.Duration(i)*time.Millisecond, pcap.FrameSpec{
					Src: server, Dst: client, Seq: seq, Ack: 1, Flags: pcap.FlagACK,
					PayloadLen: int(mss)})
				seq += uint32(mss)
			}
			at += rtt
			if r == gapAfter {
				// The handshake pins the flow's RTT estimate to rtt.
				at += max(8*rtt, time.Second) + time.Duration(1+rng.Intn(300))*time.Millisecond
			}
			if w < 64 {
				w *= 2
			}
		}
		if rng.Intn(2) == 0 {
			// Timeout signature: silence then a retransmission.
			at += 3 * rtt
			add(at, pcap.FrameSpec{Src: server, Dst: client, Seq: seq - uint32(mss), Ack: 1,
				Flags: pcap.FlagACK, PayloadLen: int(mss)})
			add(at+rtt, pcap.FrameSpec{Src: server, Dst: client, Seq: seq, Ack: 1,
				Flags: pcap.FlagACK, PayloadLen: int(mss)})
		}
	}
	sort.SliceStable(events, func(i, j int) bool {
		if events[i].at != events[j].at {
			return events[i].at < events[j].at
		}
		return events[i].order < events[j].order
	})
	var buf bytes.Buffer
	w, err := pcap.NewWriter(&buf, pcap.LinkEthernet, 0)
	if err != nil {
		panic(err)
	}
	for i := range events {
		frame := pcap.AppendFrame(nil, &events[i].spec)
		if err := w.WritePacket(base.Add(events[i].at), len(frame), frame); err != nil {
			panic(err)
		}
	}
	return buf.Bytes(), long
}

// stepReader hands out at most step bytes per Read.
type stepReader struct {
	r    io.Reader
	step int
}

func (s stepReader) Read(p []byte) (int, error) {
	return s.r.Read(p[:min(len(p), s.step)])
}

// streamCollect runs data through the engine with idle expiry on or off
// and returns the emitted flows (sorted in capture order) and stats. It
// reads the capture through three sources that hand it over in other
// pieces -- chunk bytes, one byte and half the asked-for bytes per Read
// -- and fails unless all three emit the same flows and stats.
func streamCollect(t testing.TB, data []byte, cfg StreamConfig, chunk int, expiry bool) ([]*FlowTrace, CaptureStats) {
	t.Helper()
	var (
		want      []*FlowTrace
		wantStats CaptureStats
	)
	for i, src := range []io.Reader{
		stepReader{bytes.NewReader(data), chunk},
		iotest.OneByteReader(bytes.NewReader(data)),
		iotest.HalfReader(bytes.NewReader(data)),
	} {
		var got []*FlowTrace
		stats, err := capture(context.Background(), src, cfg.withDefaults(), expiry,
			func(f *FlowTrace) { got = append(got, f) })
		if err != nil {
			t.Fatalf("source %d: %v", i, err)
		}
		sortFlows(got)
		if i == 0 {
			want, wantStats = got, stats
			continue
		}
		equivalentFlows(t, want, got, "source "+itoa(i)+" vs step "+itoa(chunk))
		if stats != wantStats {
			t.Fatalf("source %d: stats %+v, step %d gave %+v", i, stats, chunk, wantStats)
		}
	}
	return want, wantStats
}

// equivalentFlows asserts the two flow sets are identical, trace for
// trace.
func equivalentFlows(t testing.TB, offline, online []*FlowTrace, label string) {
	t.Helper()
	if len(offline) != len(online) {
		t.Fatalf("%s: offline %d flows, online %d", label, len(offline), len(online))
	}
	for i := range offline {
		if !reflect.DeepEqual(offline[i], online[i]) {
			t.Fatalf("%s: flow %d diverged:\noffline %+v\n online %+v", label, i, *offline[i], *online[i])
		}
	}
}

// TestStreamMatchesOffline is the online == offline equivalence
// property: on the same capture, the streaming pipeline (epoch expiry,
// incremental sinks, any read chunking) must emit exactly the FlowTrace
// set Reassemble produces.
func TestStreamMatchesOffline(t *testing.T) {
	data, _ := synthCapture(42, 40, false)
	cfg := Config{MaxFlows: 1 << 16, MaxEmitted: -1}
	offline, offStats, err := Reassemble(bytes.NewReader(data), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, chunk := range []int{1777, 1 << 20} {
		online, stats := streamCollect(t, data, StreamConfig{Tracker: cfg}, chunk, true)
		label := "chunk=" + itoa(chunk)
		equivalentFlows(t, offline, online, label)
		if stats.Flows != offStats.Flows || stats.TCPSegments != offStats.TCPSegments ||
			stats.Packets != offStats.Packets {
			t.Fatalf("%s: stats %+v, offline %+v", label, stats, offStats)
		}
	}
}

// TestStreamExpiryActuallyFires guards the equivalence test's teeth: on
// the synthetic captures, idle expiry must emit most flows mid-stream,
// not leave everything to the Finish drain.
func TestStreamExpiryActuallyFires(t *testing.T) {
	data, _ := synthCapture(7, 40, false)
	var m StreamMetrics
	m.Tracker.Live = &telemetry.Gauge{}
	m.Tracker.LiveHighWater = &telemetry.Gauge{}
	m.Tracker.Epochs = &telemetry.Counter{}
	m.Tracker.Expired = &telemetry.Counter{}
	m.Flows = &telemetry.Counter{}
	stats, err := Stream(context.Background(), bytes.NewReader(data), StreamConfig{
		Tracker: Config{MaxFlows: 1 << 16, MaxEmitted: -1}, Metrics: &m}, func(*FlowTrace) {})
	if err != nil {
		t.Fatal(err)
	}
	if m.Tracker.Expired.Load() < stats.Flows/2 {
		t.Fatalf("only %d of %d flows idle-expired; capture spread should expire most", m.Tracker.Expired.Load(), stats.Flows)
	}
	if m.Tracker.Epochs.Load() == 0 || m.Tracker.LiveHighWater.Load() == 0 {
		t.Fatalf("epoch metrics not threaded: epochs=%d highwater=%d", m.Tracker.Epochs.Load(), m.Tracker.LiveHighWater.Load())
	}
	if m.Tracker.Live.Load() != 0 {
		t.Fatalf("live gauge after close = %d, want 0", m.Tracker.Live.Load())
	}
	if m.Flows.Load() != stats.Flows {
		t.Fatalf("flows counter %d, stats %d", m.Flows.Load(), stats.Flows)
	}
}

// FuzzOnlineOfflineEquivalence fuzzes the engine's two modes over
// generated captures: whatever flow mix, timing spread, long idle gaps
// and read chunking the seed picks, the stream's loop with idle expiry
// off must emit exactly Reassemble's flows, and with expiry on it must
// split each long gap into one more flow -- and emit exactly the
// offline flows when there is none.
func FuzzOnlineOfflineEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(10), uint8(2), false)
	f.Add(int64(99), uint8(30), uint8(5), true)
	f.Add(int64(-7), uint8(1), uint8(1), false)
	f.Add(int64(5), uint8(20), uint8(0), true)
	f.Add(int64(3), uint8(47), uint8(255), true)
	f.Fuzz(func(t *testing.T, seed int64, nflows, chunkSel uint8, gaps bool) {
		n := int(nflows)%48 + 1
		data, long := synthCapture(seed, n, gaps)
		cfg := Config{MaxFlows: 1 << 16, MaxEmitted: -1}
		offline, _, err := Reassemble(bytes.NewReader(data), cfg)
		if err != nil {
			t.Fatal(err)
		}
		// chunkSel picks the read size: 1 byte up to ~16 KiB.
		sc := StreamConfig{Tracker: cfg}
		chunk := 1 + int(chunkSel)*64
		expiryOff, _ := streamCollect(t, data, sc, chunk, false)
		equivalentFlows(t, offline, expiryOff, "expiry off")
		online, stats := streamCollect(t, data, sc, chunk, true)
		if len(online) != len(offline)+long || stats.Flows != int64(len(online)) {
			t.Fatalf("expiry on: %d flows (stats %d), want %d offline + %d long gaps",
				len(online), stats.Flows, len(offline), long)
		}
		if long == 0 {
			equivalentFlows(t, offline, online, "expiry on")
		}
	})
}

// TestStreamSoakLiveFlowsBounded is the 100k-concurrent-flow soak: two
// waves of 110k flows each pass through the pipeline, and the live-flow
// gauge must plateau at one wave's width -- idle expiry reclaims wave
// one before wave two peaks, so memory stays flat instead of growing
// with total flows seen.
func TestStreamSoakLiveFlowsBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	const wave = 110_000
	base := time.Unix(1700000000, 0).UTC()
	var buf bytes.Buffer
	w, err := pcap.NewWriter(&buf, pcap.LinkEthernet, 0)
	if err != nil {
		t.Fatal(err)
	}
	server := netip.AddrPortFrom(netip.AddrFrom4([4]byte{192, 168, 0, 1}), 80)
	var frame []byte
	writeWave := func(start time.Duration) {
		// All of a wave's flows are concurrently live: every flow sends
		// at start and again 900ms later, then goes idle.
		for pass := 0; pass < 2; pass++ {
			at := start + time.Duration(pass)*900*time.Millisecond
			for i := 0; i < wave; i++ {
				client := netip.AddrPortFrom(
					netip.AddrFrom4([4]byte{10, 1, byte(i >> 16), byte(i >> 8)}), uint16(20000+i%256))
				frame = pcap.AppendFrame(frame[:0], &pcap.FrameSpec{
					Src: server, Dst: client, Seq: uint32(pass * 100), Ack: 1,
					Flags: pcap.FlagACK, PayloadLen: 100})
				if err := w.WritePacket(base.Add(at), len(frame), frame); err != nil {
					t.Fatal(err)
				}
			}
		}
		// Heartbeats move capture time 4s forward so epoch sweeps expire
		// the wave (threshold: max(8 x 200ms defaultRTT, 1s) = 1.6s).
		hb := netip.AddrPortFrom(netip.AddrFrom4([4]byte{10, 9, 9, 9}), 9999)
		for ms := int64(1000); ms <= 4800; ms += 200 {
			frame = pcap.AppendFrame(frame[:0], &pcap.FrameSpec{
				Src: hb, Dst: server, Seq: uint32(ms), Ack: 1, Flags: pcap.FlagACK, PayloadLen: 1})
			if err := w.WritePacket(base.Add(start+time.Duration(ms)*time.Millisecond), len(frame), frame); err != nil {
				t.Fatal(err)
			}
		}
	}
	writeWave(0)
	writeWave(6 * time.Second)

	var m StreamMetrics
	m.Tracker.Live = &telemetry.Gauge{}
	m.Tracker.LiveHighWater = &telemetry.Gauge{}
	m.Tracker.Expired = &telemetry.Counter{}
	var flows int64
	stats, err := Stream(context.Background(), bytes.NewReader(buf.Bytes()), StreamConfig{
		Tracker: Config{MaxFlows: 200_000},
		Metrics: &m,
	}, func(*FlowTrace) { flows++ })
	if err != nil {
		t.Fatal(err)
	}
	high := m.Tracker.LiveHighWater.Load()
	if high < 100_000 {
		t.Fatalf("live high water %d, want >= 100k concurrent flows", high)
	}
	if high > wave+4096 {
		t.Fatalf("live high water %d for %d-flow waves: wave one was not reclaimed (gauge not flat)", high, wave)
	}
	if m.Tracker.Live.Load() != 0 {
		t.Fatalf("live gauge after close = %d, want 0", m.Tracker.Live.Load())
	}
	if got := stats.Flows; got < 2*wave {
		t.Fatalf("flows tracked = %d, want >= %d", got, 2*wave)
	}
	if flows != stats.Flows-stats.DroppedFlows {
		t.Fatalf("emitted %d flows, stats %+v", flows, stats)
	}
}

// TestStreamCancelStopsBeforeEOF pins cancellation of the pull form: a
// ctx cancelled mid-capture -- here by the sink, as the first flow
// closes -- makes Stream return context.Canceled well before the
// reader's EOF, and no flow reaches the sink after the cancel.
func TestStreamCancelStopsBeforeEOF(t *testing.T) {
	data, _ := synthCapture(11, 150, false)
	_, all, err := Reassemble(bytes.NewReader(data), Config{MaxFlows: 1 << 16, MaxEmitted: -1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var flows int
	stats, err := Stream(ctx, bytes.NewReader(data), StreamConfig{}, func(*FlowTrace) {
		flows++
		cancel()
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Stream after cancel: %v, want context.Canceled", err)
	}
	if flows != 1 {
		t.Fatalf("sink saw %d flows, want only the one that cancelled", flows)
	}
	// The loop checks ctx every 4096 records, so it stops within one
	// countdown of the cancel instead of reading the capture to its end.
	if all.Packets <= 4096 || stats.Packets >= all.Packets {
		t.Fatalf("read %d of %d records after the cancel", stats.Packets, all.Packets)
	}
}

// TestIdentifyStreamMatchesOffline streams a real multi-server pcapgen
// capture through the streaming classify path, repeatedly, and expects
// IdentifyCapture's answer pair for pair on every run: the same pairing,
// label, confidence, reason and elapsed time. The single tracker closes
// each client's sequential connections in capture order, so the stream
// pairer sees the same (A, B) pairs the offline Pair does.
func TestIdentifyStreamMatchesOffline(t *testing.T) {
	model := loadGoldenModel(t)
	specs := []pcapgen.ServerSpec{
		{Algorithm: "RENO", Seed: 21},
		{Algorithm: "CUBIC2", Seed: 22},
		{Algorithm: "VEGAS", Seed: 23},
	}
	var buf bytes.Buffer
	if _, err := pcapgen.Generate(&buf, specs, pcapgen.Options{}); err != nil {
		t.Fatal(err)
	}
	want, _, err := IdentifyCapture(bytes.NewReader(buf.Bytes()), model, IdentifyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 20; run++ {
		var got []FlowIdentification
		_, err := IdentifyStream(context.Background(), bytes.NewReader(buf.Bytes()), model, StreamConfig{},
			func(fi FlowIdentification) { got = append(got, fi) })
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("run %d: stream produced %d results, offline %d", run, len(got), len(want))
		}
		sort.SliceStable(got, func(i, j int) bool { return flowLess(got[i].A, got[j].A) })
		for i := range want {
			if d := pairDiff(want[i], got[i]); d != "" {
				t.Fatalf("run %d, pair %d (%s): %s", run, i, want[i].A.Server, d)
			}
		}
	}
}

// pairDiff describes how a streamed identification differs from the
// offline one ("" when they agree).
func pairDiff(want, got FlowIdentification) string {
	client := func(f *FlowTrace) string {
		if f == nil {
			return "none"
		}
		return f.Client
	}
	w, g := want.ID, got.ID
	switch {
	case want.A.Client != got.A.Client || want.A.Server != got.A.Server:
		return "flow A " + got.A.Client + " -> " + got.A.Server + ", offline " + want.A.Client + " -> " + want.A.Server
	case client(want.B) != client(got.B):
		return "companion " + client(got.B) + ", offline " + client(want.B)
	case w.Label != g.Label || w.Confidence != g.Confidence || w.Reason != g.Reason ||
		w.Elapsed != g.Elapsed || w.Valid != g.Valid || w.Special != g.Special:
		return "identification " + g.String() + " elapsed " + g.Elapsed.String() +
			", offline " + w.String() + " elapsed " + w.Elapsed.String()
	}
	return ""
}
