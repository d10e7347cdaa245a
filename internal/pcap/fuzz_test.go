package pcap

import (
	"bytes"
	"io"
	"net/netip"
	"testing"
	"time"
)

// fuzzSeedCapture builds a small valid capture in the given format for the
// fuzz corpus.
func fuzzSeedCapture(format string) []byte {
	src := netip.MustParseAddrPort("10.0.0.1:40000")
	dst := netip.MustParseAddrPort("10.0.0.2:80")
	var buf bytes.Buffer
	w, err := NewPacketWriter(&buf, format, LinkEthernet, 96)
	if err != nil {
		panic(err)
	}
	ts := time.Unix(1700000000, 0).UTC()
	frames := []*FrameSpec{
		{Src: src, Dst: dst, Seq: 100, Flags: FlagSYN,
			Opt: TCPOptions{MSS: 536, HasMSS: true, SackPermitted: true, HasTS: true, TSVal: 1}},
		{Src: dst, Dst: src, Seq: 9000, Ack: 101, Flags: FlagSYN | FlagACK,
			Opt: TCPOptions{MSS: 536, HasMSS: true}},
		{Src: src, Dst: dst, Seq: 101, Ack: 9001, Flags: FlagACK},
		{Src: dst, Dst: src, Seq: 9001, Ack: 101, Flags: FlagACK, PayloadLen: 536,
			Opt: TCPOptions{HasTS: true, TSVal: 2, TSEcr: 1}},
	}
	for i, f := range frames {
		frame := AppendFrame(nil, f)
		if err := w.WritePacket(ts.Add(time.Duration(i)*time.Millisecond), len(frame), frame); err != nil {
			panic(err)
		}
	}
	return buf.Bytes()
}

// FuzzDecode hammers the full decoder with arbitrary bytes: it must
// return errors on garbage -- never panic, never hang, and never allocate
// beyond the MaxSnapLen-scale buffers regardless of what length fields
// the input claims.
func FuzzDecode(f *testing.F) {
	f.Add(fuzzSeedCapture("pcap"))
	f.Add(fuzzSeedCapture("pcapng"))
	f.Add([]byte{})
	f.Add([]byte{0xd4, 0xc3, 0xb2, 0xa1}) // magic only
	truncated := fuzzSeedCapture("pcap")
	f.Add(truncated[:len(truncated)-7])
	ng := fuzzSeedCapture("pcapng")
	f.Add(ng[:30])

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		var pkt Packet
		for i := 0; i < 1_000_000; i++ {
			err = r.Next(&pkt)
			if err != nil {
				break
			}
			if pkt.PayloadLen < 0 || pkt.CapturedLen > MaxSnapLen {
				t.Fatalf("impossible packet lengths: payload %d captured %d", pkt.PayloadLen, pkt.CapturedLen)
			}
		}
		if err == nil {
			t.Fatal("Next never terminated")
		}
		if err != io.EOF {
			// Any non-EOF error is acceptable; it must just be an error,
			// not a panic.
			_ = err.Error()
		}
	})
}

// FuzzTCPOptions pins the timestamps-only fast path to the option walk:
// for any option area, the Opt a parse leaves behind, fast path or not,
// equals what parseTCPOptions alone decodes from it.
func FuzzTCPOptions(f *testing.F) {
	ts := []byte{8, 10, 0x11, 0x22, 0x33, 0x44, 0xaa, 0xbb, 0xcc, 0xdd}
	for _, opts := range [][]byte{
		append([]byte{1, 1}, ts...),                                      // NOP NOP TS: RFC 7323 Appendix A
		append(append([]byte{}, ts...), 1, 1),                            // TS NOP NOP: AppendFrame
		append([]byte{1, 1, 8, 11}, ts[2:]...),                           // a length byte of 11
		append(append([]byte{}, ts...), 1, 0),                            // an EOL inside the area
		append([]byte{0, 1}, ts...),                                      // an EOL first
		append(append([]byte{1, 1}, ts...), 1),                           // 13 bytes
		{2, 4, 5, 0xb4, 4, 2, 8, 10, 0, 0, 0, 1, 0, 0, 0, 0, 1, 3, 3, 7}, // a Linux SYN
		appendTCPOptions(nil, &TCPOptions{MSS: 536, HasMSS: true, SackPermitted: true, HasTS: true, TSVal: 1}),
	} {
		f.Add(opts)
	}
	f.Fuzz(func(t *testing.T, opts []byte) {
		var want TCPOptions
		parseTCPOptions(opts, &want)
		// Stale options from the previous packet must not leak through.
		got := TCPOptions{MSS: 1, HasMSS: true, WScale: 2, HasWScale: true, SackPermitted: true, SackCount: 4, TSVal: 3, TSEcr: 4}
		if timestampsOnly(opts, &got) && got != want {
			t.Fatalf("fast path decoded % x as %+v, the walk as %+v", opts, got, want)
		}
		if len(opts) > 40 || len(opts)%4 != 0 {
			return
		}
		// The same area through the TCP header parse.
		seg := make([]byte, 20, 20+len(opts))
		seg[12] = byte(20+len(opts)) / 4 << 4
		seg = append(seg, opts...)
		pkt := Packet{Opt: got}
		if parseTCP(seg, len(seg), &pkt) != parsedTCP || pkt.Opt != want {
			t.Fatalf("parseTCP decoded % x as %+v, the walk as %+v", opts, pkt.Opt, want)
		}
	})
}

// TestTimestampsOnlyLayouts pins which areas take the fast path: both
// timestamps-only layouts do, so FuzzTCPOptions compares something.
func TestTimestampsOnlyLayouts(t *testing.T) {
	want := TCPOptions{TSVal: 0x11223344, TSEcr: 0xaabbccdd, HasTS: true}
	for _, opts := range [][]byte{
		{1, 1, 8, 10, 0x11, 0x22, 0x33, 0x44, 0xaa, 0xbb, 0xcc, 0xdd},
		appendTCPOptions(nil, &want),
	} {
		var got TCPOptions
		if !timestampsOnly(opts, &got) || got != want {
			t.Fatalf("% x: fast path %+v, want %+v", opts, got, want)
		}
	}
}
