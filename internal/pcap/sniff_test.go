package pcap

import (
	"bytes"
	"io"
	"net/netip"
	"testing"
)

// sniffFrames is a spread of tuples over both IP versions.
func sniffFrames() []*FrameSpec {
	v6a := netip.MustParseAddrPort("[2001:db8::1]:40000")
	v6b := netip.MustParseAddrPort("[2001:db8::2]:443")
	var fs []*FrameSpec
	for i := 0; i < 8; i++ {
		src := netip.AddrPortFrom(netip.AddrFrom4([4]byte{10, 0, 0, byte(1 + i)}), uint16(40000+i))
		fs = append(fs,
			&FrameSpec{Src: src, Dst: testDst, Seq: uint32(i), Flags: FlagSYN},
			&FrameSpec{Src: testDst, Dst: src, Seq: 100, Ack: uint32(i + 1), Flags: FlagSYN | FlagACK, PayloadLen: 64})
	}
	fs = append(fs,
		&FrameSpec{Src: v6a, Dst: v6b, Seq: 1, Flags: FlagSYN},
		&FrameSpec{Src: v6b, Dst: v6a, Seq: 2, Ack: 2, Flags: FlagACK, PayloadLen: 128})
	return fs
}

// TestTupleSniffAgreesWithParse pins the sniffer's contract: every frame
// the full parse classifies as TCP must sniff ok, and every packet of
// one connection -- both directions -- must land on the same hash.
func TestTupleSniffAgreesWithParse(t *testing.T) {
	data := buildCapture(t, "pcap", 0, sniffFrames()...)
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	byFlow := map[string]uint64{}
	hashes := map[uint64]bool{}
	var rec RawRecord
	var pkt Packet
	for {
		err := r.NextRaw(&rec)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		pkt.UnixNano, pkt.CapturedLen, pkt.OrigLen = rec.UnixNano, rec.CapturedLen, rec.OrigLen
		if parseFrame(rec.LinkType, rec.Data, &pkt) != parsedTCP {
			t.Fatalf("unexpected non-TCP frame in synthetic capture")
		}
		h, _, ok := TupleSniff(rec.LinkType, rec.Data)
		if !ok {
			t.Fatalf("parse said TCP but sniff failed: %s -> %s", pkt.Src(), pkt.Dst())
		}
		// Direction-normalized flow name.
		a, b := pkt.Src(), pkt.Dst()
		if b < a {
			a, b = b, a
		}
		key := a + "|" + b
		if prev, seen := byFlow[key]; seen && prev != h {
			t.Fatalf("flow %s hashed to both %x and %x", key, prev, h)
		}
		byFlow[key] = h
		hashes[h] = true
	}
	if len(byFlow) != 9 {
		t.Fatalf("flows = %d, want 9", len(byFlow))
	}
	if len(hashes) < 8 {
		t.Fatalf("only %d distinct hashes over 9 flows: sniffer mixes poorly", len(hashes))
	}
}

// TestTupleSniffOtherLinkTypes covers the VLAN, null, loopback and raw-IP
// paths the Ethernet-only capture above does not reach.
func TestTupleSniffOtherLinkTypes(t *testing.T) {
	full := AppendFrame(nil, &FrameSpec{Src: testSrc, Dst: testDst, Seq: 9, Flags: FlagSYN})
	ip := full[14:]
	tagged := append([]byte{}, full[:12]...)
	tagged = append(tagged, 0x81, 0x00, 0x00, 0x2a)
	tagged = append(tagged, full[12:]...)
	cases := []struct {
		name     string
		linkType uint32
		frame    []byte
	}{
		{"ethernet", LinkEthernet, full},
		{"vlan", LinkEthernet, tagged},
		{"raw", LinkRaw, ip},
		{"null-le", LinkNull, append([]byte{2, 0, 0, 0}, ip...)},
		{"loop-be", LinkLoop, append([]byte{0, 0, 0, 2}, ip...)},
	}
	var want uint64
	for i, tc := range cases {
		var pkt Packet
		if parseFrame(tc.linkType, tc.frame, &pkt) != parsedTCP {
			t.Fatalf("%s: full parse rejected the frame", tc.name)
		}
		h, _, ok := TupleSniff(tc.linkType, tc.frame)
		if !ok {
			t.Fatalf("%s: sniff failed on a parseable TCP frame", tc.name)
		}
		if i == 0 {
			want = h
		} else if h != want {
			t.Fatalf("%s: hash %x, want %x (same tuple must hash identically across encapsulations)", tc.name, h, want)
		}
	}
	if _, _, ok := TupleSniff(LinkEthernet, []byte{1, 2, 3}); ok {
		t.Fatal("sniff accepted a 3-byte frame")
	}
}

// TestTupleSniffSpanPreservesParse pins the header-span contract a
// sharding framer relies on: parsing just data[:span] must classify
// the frame identically and decode the exact same Packet, because no
// layer reads payload bytes (lengths come from the IP header).
func TestTupleSniffSpanPreservesParse(t *testing.T) {
	for _, spec := range sniffFrames() {
		frame := AppendFrame(nil, spec)
		var full Packet
		class := parseFrame(LinkEthernet, frame, &full)
		_, span, ok := TupleSniff(LinkEthernet, frame)
		if !ok {
			t.Fatalf("sniff failed on synthetic frame %v", spec)
		}
		if spec.PayloadLen > 0 && span >= len(frame) {
			t.Fatalf("span %d did not exclude the %d-byte payload (frame %d bytes)",
				span, spec.PayloadLen, len(frame))
		}
		snapped := frame
		if span < len(snapped) {
			snapped = snapped[:span]
		}
		var snap Packet
		if got := parseFrame(LinkEthernet, snapped, &snap); got != class {
			t.Fatalf("snapped parse classified %v, full parse %v", got, class)
		}
		if snap != full {
			t.Fatalf("snapped decode differs:\nsnap %+v\nfull %+v", snap, full)
		}
	}
}

// FuzzTupleSniff hammers the sniffer with arbitrary frames: it must
// never panic, must never miss a frame the full parse accepts as TCP
// (a miss would break flow-affinity in the sharded pipeline), and its
// header span must never change what parseFrame decodes.
func FuzzTupleSniff(f *testing.F) {
	f.Add(uint8(0), AppendFrame(nil, &FrameSpec{Src: testSrc, Dst: testDst, Seq: 1, Flags: FlagSYN}))
	f.Add(uint8(2), AppendFrame(nil, &FrameSpec{Src: testSrc, Dst: testDst, Seq: 1, Flags: FlagSYN})[14:])
	f.Add(uint8(1), []byte{0, 0, 0, 2})
	f.Add(uint8(3), []byte{})
	f.Fuzz(func(t *testing.T, link uint8, data []byte) {
		linkTypes := []uint32{LinkEthernet, LinkNull, LinkRaw, LinkLoop, 147}
		linkType := linkTypes[int(link)%len(linkTypes)]
		var pkt Packet
		class := parseFrame(linkType, data, &pkt)
		h1, span, ok := TupleSniff(linkType, data)
		if class == parsedTCP && !ok {
			t.Fatalf("parse=TCP but sniff failed (link %d)", linkType)
		}
		h2, _, ok2 := TupleSniff(linkType, data)
		if ok != ok2 || h1 != h2 {
			t.Fatal("sniff not deterministic")
		}
		if ok {
			snapped := data
			if span < len(snapped) {
				snapped = snapped[:span]
			}
			var snap Packet
			if got := parseFrame(linkType, snapped, &snap); got != class {
				t.Fatalf("span %d changed the parse: %v -> %v (link %d)", span, class, got, linkType)
			}
			if class == parsedTCP && snap != pkt {
				t.Fatalf("span %d changed the decode (link %d):\nsnap %+v\nfull %+v", span, linkType, snap, pkt)
			}
		}
	})
}

// TestNextRawMatchesNext pins that the raw-record path plus parseFrame
// reproduces the one-shot Next path exactly, packets and stats both.
func TestNextRawMatchesNext(t *testing.T) {
	frames := sniffFrames()
	for _, format := range []string{"pcap", "pcapng"} {
		data := buildCapture(t, format, 0, frames...)
		wantPkts, wantStats := readAll(t, data)

		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		var got []Packet
		stats := Stats{}
		var rec RawRecord
		for {
			err := r.NextRaw(&rec)
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			var pkt Packet
			pkt.UnixNano, pkt.CapturedLen, pkt.OrigLen = rec.UnixNano, rec.CapturedLen, rec.OrigLen
			switch parseFrame(rec.LinkType, rec.Data, &pkt) {
			case parsedTCP:
				stats.TCP++
				got = append(got, pkt)
			case parsedTruncated:
				stats.Truncated++
			default:
				stats.Skipped++
			}
		}
		stats.Packets = r.Stats().Packets
		if stats != wantStats {
			t.Fatalf("%s: stats %+v, want %+v", format, stats, wantStats)
		}
		if len(got) != len(wantPkts) {
			t.Fatalf("%s: %d packets, want %d", format, len(got), len(wantPkts))
		}
		for i := range got {
			if got[i] != wantPkts[i] {
				t.Fatalf("%s: packet %d differs:\n raw %+v\nnext %+v", format, i, got[i], wantPkts[i])
			}
		}
	}
}
