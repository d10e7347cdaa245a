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
// max(IdleRTTs x RTT, Epoch) at the defaults, which the stream splits
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

// streamCollect runs data through a Stream with idle expiry on or off
// and returns the emitted flows (sorted in capture order) and stats.
func streamCollect(t testing.TB, data []byte, cfg StreamConfig, chunk int, expiry bool) ([]*FlowTrace, CaptureStats) {
	t.Helper()
	var got []*FlowTrace
	st := newStream(context.Background(), cfg, func(f *FlowTrace) { got = append(got, f) }, expiry)
	for off := 0; off < len(data); off += chunk {
		end := off + chunk
		if end > len(data) {
			end = len(data)
		}
		if _, err := st.Write(data[off:end]); err != nil {
			t.Fatalf("stream write: %v", err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatalf("stream close: %v", err)
	}
	sortFlows(got)
	return got, st.Stats()
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
// incremental sinks, any ring size, any write chunking) must emit
// exactly the FlowTrace set Reassemble produces.
func TestStreamMatchesOffline(t *testing.T) {
	data, _ := synthCapture(42, 40, false)
	cfg := Config{MaxFlows: 1 << 16, MaxEmitted: -1}
	offline, offStats, err := Reassemble(bytes.NewReader(data), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, ring := range []int{4 << 10, 64 << 10} {
		for _, chunk := range []int{1777, 1 << 20} {
			online, stats := streamCollect(t, data, StreamConfig{
				Tracker: cfg, RingBytes: ring}, chunk, true)
			label := "ring=" + itoa(ring) + " chunk=" + itoa(chunk)
			equivalentFlows(t, offline, online, label)
			if stats.Flows != offStats.Flows || stats.TCPSegments != offStats.TCPSegments ||
				stats.Packets != offStats.Packets {
				t.Fatalf("%s: stats %+v, offline %+v", label, stats, offStats)
			}
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
	_, stats := streamCollect(t, data, StreamConfig{
		Tracker: Config{MaxFlows: 1 << 16, MaxEmitted: -1}, Metrics: &m}, 1<<20, true)
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
// and write chunking the seed picks, the ring pipeline with idle expiry
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
		// chunkSel picks the write size: 1 byte up to ~16 KiB, around
		// the 32 KiB ring.
		sc := StreamConfig{Tracker: cfg, RingBytes: 32 << 10}
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
		// the wave (threshold: max(8 x 200ms DefaultRTT, 1s) = 1.6s).
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
	st := NewStream(context.Background(), StreamConfig{
		Tracker: Config{MaxFlows: 200_000},
		Metrics: &m,
	}, func(*FlowTrace) { flows++ })
	if _, err := io.Copy(st, bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
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
	if got := st.Stats().Flows; got < 2*wave {
		t.Fatalf("flows tracked = %d, want >= %d", got, 2*wave)
	}
	if flows != st.Stats().Flows-st.Stats().DroppedFlows {
		t.Fatalf("emitted %d flows, stats %+v", flows, st.Stats())
	}
}

// TestStreamAbortUnblocksWriter pins cancellation: a producer blocked
// on a full ring must unwind promptly when the stream aborts.
func TestStreamAbortUnblocksWriter(t *testing.T) {
	st := NewStream(context.Background(), StreamConfig{RingBytes: 4 << 10}, func(*FlowTrace) {})
	// No valid pcap header: the decoder waits for bytes forever, so
	// writes beyond the ring capacity block.
	junk := make([]byte, 64<<10)
	done := make(chan error, 1)
	go func() {
		_, err := st.Write(junk)
		done <- err
	}()
	boom := errors.New("client went away")
	st.Abort(boom)
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("blocked Write returned nil after Abort")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Write still blocked after Abort")
	}
}

// TestStreamContextCancelUnblocks pins the other cancellation path: the
// caller's context, not an explicit Abort.
func TestStreamContextCancelUnblocks(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	st := NewStream(ctx, StreamConfig{RingBytes: 4 << 10}, func(*FlowTrace) {})
	junk := make([]byte, 64<<10)
	done := make(chan error, 1)
	go func() {
		_, err := st.Write(junk)
		done <- err
	}()
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("blocked Write returned nil after context cancel")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Write still blocked after context cancel")
	}
	if err := st.Close(); err == nil {
		t.Fatal("Close after cancel returned nil error")
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
		st := NewIdentifyStream(context.Background(), model, StreamConfig{}, func(fi FlowIdentification) {
			got = append(got, fi)
		})
		if _, err := io.Copy(st, bytes.NewReader(buf.Bytes())); err != nil {
			t.Fatal(err)
		}
		if err := st.Close(); err != nil {
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
