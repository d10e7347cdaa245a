package pcap

import (
	"bytes"
	"errors"
	"io"
	"net/netip"
	"strings"
	"testing"
	"time"
)

var (
	testSrc = netip.MustParseAddrPort("10.0.0.1:40000")
	testDst = netip.MustParseAddrPort("10.0.0.2:80")
)

// buildCapture writes frames through the named format writer.
func buildCapture(t *testing.T, format string, snapLen uint32, frames ...*FrameSpec) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewPacketWriter(&buf, format, LinkEthernet, snapLen)
	if err != nil {
		t.Fatal(err)
	}
	ts := time.Unix(1700000000, 0).UTC()
	for i, f := range frames {
		frame := AppendFrame(nil, f)
		if err := w.WritePacket(ts.Add(time.Duration(i)*time.Millisecond), len(frame), frame); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

func readAll(t *testing.T, data []byte) ([]Packet, Stats) {
	t.Helper()
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	var pkts []Packet
	var pkt Packet
	for {
		err := r.Next(&pkt)
		if err == io.EOF {
			return pkts, r.Stats()
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		pkts = append(pkts, pkt)
	}
}

func TestRoundTripBothFormats(t *testing.T) {
	frames := []*FrameSpec{
		{Src: testSrc, Dst: testDst, Seq: 100, Flags: FlagSYN, Window: 65535,
			Opt: TCPOptions{MSS: 1460, HasMSS: true, SackPermitted: true, HasWScale: true, WScale: 7, HasTS: true, TSVal: 10, TSEcr: 0}},
		{Src: testDst, Dst: testSrc, Seq: 9000, Ack: 101, Flags: FlagSYN | FlagACK, Window: 65535,
			Opt: TCPOptions{MSS: 536, HasMSS: true, SackPermitted: true}},
		{Src: testSrc, Dst: testDst, Seq: 101, Ack: 9001, Flags: FlagACK, Window: 1024},
		{Src: testDst, Dst: testSrc, Seq: 9001, Ack: 101, Flags: FlagACK | FlagPSH, Window: 512, PayloadLen: 536,
			Opt: TCPOptions{HasTS: true, TSVal: 77, TSEcr: 10}},
		{Src: testSrc, Dst: testDst, Seq: 101, Ack: 9537, Flags: FlagACK,
			Opt: TCPOptions{SackCount: 1, Sack: [maxSackBlocks]SackBlock{{Start: 9600, End: 10136}}}},
	}
	for _, format := range []string{"pcap", "pcapng"} {
		t.Run(format, func(t *testing.T) {
			pkts, stats := readAll(t, buildCapture(t, format, 0, frames...))
			if len(pkts) != len(frames) {
				t.Fatalf("decoded %d packets, want %d", len(pkts), len(frames))
			}
			if stats.TCP != int64(len(frames)) || stats.Skipped != 0 || stats.Truncated != 0 {
				t.Fatalf("stats = %+v", stats)
			}
			syn := pkts[0]
			if syn.Src() != testSrc.String() || syn.Dst() != testDst.String() {
				t.Fatalf("endpoints %s -> %s", syn.Src(), syn.Dst())
			}
			if !syn.SYN() || syn.Seq != 100 || !syn.Opt.HasMSS || syn.Opt.MSS != 1460 ||
				!syn.Opt.SackPermitted || !syn.Opt.HasWScale || syn.Opt.WScale != 7 || !syn.Opt.HasTS {
				t.Fatalf("SYN decoded wrong: %+v", syn)
			}
			data := pkts[3]
			if data.PayloadLen != 536 || data.Seq != 9001 || !data.Opt.HasTS || data.Opt.TSVal != 77 || data.Opt.TSEcr != 10 {
				t.Fatalf("data segment decoded wrong: %+v", data)
			}
			sack := pkts[4]
			if sack.Opt.SackCount != 1 || sack.Opt.Sack[0] != (SackBlock{Start: 9600, End: 10136}) {
				t.Fatalf("SACK decoded wrong: %+v", sack.Opt)
			}
			if pkts[1].UnixNano <= pkts[0].UnixNano {
				t.Fatalf("timestamps not increasing: %d then %d", pkts[0].UnixNano, pkts[1].UnixNano)
			}
		})
	}
}

func TestSnapLenTruncationKeepsPayloadLen(t *testing.T) {
	// Snap at 80 bytes: headers survive, the 1000-byte payload does not.
	data := buildCapture(t, "pcap", 80,
		&FrameSpec{Src: testDst, Dst: testSrc, Seq: 1, Ack: 1, Flags: FlagACK, PayloadLen: 1000})
	pkts, _ := readAll(t, data)
	if len(pkts) != 1 {
		t.Fatalf("decoded %d packets, want 1", len(pkts))
	}
	p := pkts[0]
	if p.PayloadLen != 1000 {
		t.Fatalf("PayloadLen = %d, want 1000 (from the IP length)", p.PayloadLen)
	}
	if p.CapturedLen != 80 || p.OrigLen != 14+20+20+1000 {
		t.Fatalf("lengths: captured %d orig %d", p.CapturedLen, p.OrigLen)
	}
}

func TestIPv6RoundTrip(t *testing.T) {
	src := netip.MustParseAddrPort("[2001:db8::1]:40000")
	dst := netip.MustParseAddrPort("[2001:db8::2]:80")
	data := buildCapture(t, "pcap", 0,
		&FrameSpec{Src: src, Dst: dst, Seq: 5, Ack: 6, Flags: FlagACK, PayloadLen: 100})
	pkts, _ := readAll(t, data)
	if len(pkts) != 1 || !pkts[0].IPv6 {
		t.Fatalf("decoded %+v", pkts)
	}
	if pkts[0].Src() != src.String() || pkts[0].PayloadLen != 100 {
		t.Fatalf("src %s payload %d", pkts[0].Src(), pkts[0].PayloadLen)
	}
}

func TestNonTCPSkipped(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, LinkEthernet, 0)
	if err != nil {
		t.Fatal(err)
	}
	ts := time.Unix(1700000000, 0)
	// An ARP frame and a UDP/IPv4 packet.
	arp := []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 2, 0, 0, 0, 0, 1, 0x08, 0x06, 0, 1, 8, 0, 6, 4, 0, 1}
	_ = w.WritePacket(ts, len(arp), arp)
	udp := append([]byte{2, 0, 0, 0, 0, 2, 2, 0, 0, 0, 0, 1, 0x08, 0x00},
		0x45, 0, 0, 28, 0, 0, 0, 0, 64, 17, 0, 0, 10, 0, 0, 1, 10, 0, 0, 2, 0, 53, 0, 53, 0, 8, 0, 0)
	_ = w.WritePacket(ts, len(udp), udp)
	tcp := AppendFrame(nil, &FrameSpec{Src: testSrc, Dst: testDst, Seq: 1, Flags: FlagSYN})
	_ = w.WritePacket(ts, len(tcp), tcp)

	pkts, stats := readAll(t, buf.Bytes())
	if len(pkts) != 1 || stats.Skipped != 2 || stats.Packets != 3 {
		t.Fatalf("pkts %d stats %+v", len(pkts), stats)
	}
}

func TestLinkTypes(t *testing.T) {
	ip := AppendFrame(nil, &FrameSpec{Src: testSrc, Dst: testDst, Seq: 7, Flags: FlagSYN})[14:] // strip Ethernet
	cases := []struct {
		name     string
		linkType uint32
		frame    []byte
	}{
		{"raw", LinkRaw, ip},
		{"null-le", LinkNull, append([]byte{2, 0, 0, 0}, ip...)},
		{"loop-be", LinkLoop, append([]byte{0, 0, 0, 2}, ip...)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			w, err := NewWriter(&buf, tc.linkType, 0)
			if err != nil {
				t.Fatal(err)
			}
			_ = w.WritePacket(time.Unix(0, 0), len(tc.frame), tc.frame)
			pkts, _ := readAll(t, buf.Bytes())
			if len(pkts) != 1 || pkts[0].Seq != 7 {
				t.Fatalf("decoded %+v", pkts)
			}
		})
	}
}

func TestVLANUnwrap(t *testing.T) {
	full := AppendFrame(nil, &FrameSpec{Src: testSrc, Dst: testDst, Seq: 9, Flags: FlagSYN})
	// Splice an 802.1Q tag between the MACs and the EtherType.
	tagged := append([]byte{}, full[:12]...)
	tagged = append(tagged, 0x81, 0x00, 0x00, 0x2a) // VLAN 42
	tagged = append(tagged, full[12:]...)
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, LinkEthernet, 0)
	_ = w.WritePacket(time.Unix(0, 0), len(tagged), tagged)
	pkts, _ := readAll(t, buf.Bytes())
	if len(pkts) != 1 || pkts[0].Seq != 9 {
		t.Fatalf("decoded %+v", pkts)
	}
}

func TestMalformedInputsError(t *testing.T) {
	valid := buildCapture(t, "pcap", 0, &FrameSpec{Src: testSrc, Dst: testDst, Flags: FlagSYN})
	validNG := buildCapture(t, "pcapng", 0, &FrameSpec{Src: testSrc, Dst: testDst, Flags: FlagSYN})

	// want pins each case's exact error text: the framing layer may be
	// rewritten, but what it rejects, and how it says so, may not move.
	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"empty", nil, "pcap: unrecognized capture format: capture shorter than a file header"},
		{"bad magic", []byte("GIF89a~~~~~~~~~~~~~~~~~~~~~~~~"), "pcap: unrecognized capture format"},
		{"header cut short", valid[:10], "pcap: truncated file header: unexpected EOF"},
		{"record header cut short", valid[:30], "pcap: truncated record header: unexpected EOF"},
		{"record body cut short", valid[:len(valid)-5], "pcap: truncated record body: unexpected EOF"},
		{"ng block cut short", validNG[:len(validNG)-4], "pcapng: truncated block body: unexpected EOF"},
		{"huge caplen", func() []byte {
			d := append([]byte{}, valid...)
			// Record header caplen field at offset 24+8.
			d[32], d[33], d[34], d[35] = 0xff, 0xff, 0xff, 0x7f
			return d
		}(), "pcap: record capture length 2147483647 exceeds the 1048576-byte bound"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r, err := NewReader(bytes.NewReader(tc.data))
			if err == nil {
				var pkt Packet
				for err == nil {
					err = r.Next(&pkt)
				}
			}
			if err == io.EOF && strings.Contains(tc.name, "cut short") {
				t.Fatal("truncated capture read to clean EOF")
			}
			if err == nil || err.Error() != tc.want {
				t.Fatalf("error %v, want %q", err, tc.want)
			}
		})
	}

	if _, err := NewReader(bytes.NewReader([]byte("xx"))); !errors.Is(err, ErrFormat) {
		t.Fatalf("short garbage: %v, want ErrFormat", err)
	}
}

func TestMultiSectionPcapng(t *testing.T) {
	a := buildCapture(t, "pcapng", 0, &FrameSpec{Src: testSrc, Dst: testDst, Seq: 1, Flags: FlagSYN})
	b := buildCapture(t, "pcapng", 0, &FrameSpec{Src: testDst, Dst: testSrc, Seq: 2, Flags: FlagSYN | FlagACK})
	pkts, _ := readAll(t, append(append([]byte{}, a...), b...))
	if len(pkts) != 2 || pkts[0].Seq != 1 || pkts[1].Seq != 2 {
		t.Fatalf("decoded %+v", pkts)
	}
}
