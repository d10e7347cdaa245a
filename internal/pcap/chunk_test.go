package pcap

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"slices"
	"strings"
	"testing"
	"testing/iotest"
	"time"
)

// decoded is everything one decoder run shows its caller: the packets,
// the final counters, and the text of the error that ended the run
// (NewReader's or Next's).
type decoded struct {
	pkts  []Packet
	stats Stats
	err   string
}

func decodeFrom(src io.Reader) decoded {
	var d decoded
	rd, err := NewReader(src)
	if err != nil {
		d.err = err.Error()
		return d
	}
	var pkt Packet
	for {
		if err := rd.Next(&pkt); err != nil {
			d.stats = rd.Stats()
			d.err = err.Error()
			return d
		}
		d.pkts = append(d.pkts, pkt)
	}
}

// stepReader hands out at most step bytes per Read.
type stepReader struct {
	r    io.Reader
	step int
}

func (s stepReader) Read(p []byte) (int, error) {
	return s.r.Read(p[:min(len(p), s.step)])
}

// oddSteps are the read sizes the step source hands data over at:
// single bytes, sizes that straddle record headers, and reads that span
// many records.
var oddSteps = []int{1, 7, 13, 509, 4099, 70001}

// checkChunkings decodes data through a bytes.Reader and through sources
// that hand it over in other pieces, and fails unless every source gives
// the same packets, counters and error text. step is the step source's
// read size.
func checkChunkings(t *testing.T, data []byte, step int) {
	t.Helper()
	want := decodeFrom(bytes.NewReader(data))
	sources := []struct {
		name string
		run  func() decoded
	}{
		{"one-byte", func() decoded { return decodeFrom(iotest.OneByteReader(bytes.NewReader(data))) }},
		{"half", func() decoded { return decodeFrom(iotest.HalfReader(bytes.NewReader(data))) }},
		{"data-err", func() decoded { return decodeFrom(iotest.DataErrReader(bytes.NewReader(data))) }},
		{"step", func() decoded { return decodeFrom(stepReader{bytes.NewReader(data), step}) }},
	}
	for _, src := range sources {
		got := src.run()
		if got.err != want.err {
			t.Fatalf("%s source (%d bytes, step %d): error %q, bytes.Reader gave %q", src.name, len(data), step, got.err, want.err)
		}
		if got.stats != want.stats {
			t.Fatalf("%s source (%d bytes, step %d): stats %+v, bytes.Reader gave %+v", src.name, len(data), step, got.stats, want.stats)
		}
		if !slices.Equal(got.pkts, want.pkts) {
			t.Fatalf("%s source (%d bytes, step %d): %d packets differ from bytes.Reader's %d", src.name, len(data), step, len(got.pkts), len(want.pkts))
		}
	}
}

// recordEnds lists the offsets at which a well-formed capture may end
// cleanly: after the classic file header and after each record, or after
// each pcapng block (the SHB included).
func recordEnds(data []byte) []int {
	le := binary.LittleEndian
	var ends []int
	if le.Uint32(data) == ngBlockSHB {
		for off := 0; off+8 <= len(data); {
			off += int(le.Uint32(data[off+4:]))
			ends = append(ends, off)
		}
		return ends
	}
	for off := 24; ; off += 16 + int(le.Uint32(data[off+8:])) {
		ends = append(ends, off)
		if off+16 > len(data) {
			return ends
		}
	}
}

// TestDecodeChunkingInvariant cuts the classic and pcapng seed captures
// at every offset and decodes each prefix through every chunking source:
// framing must not depend on how the bytes arrive, and a capture ends in
// a clean io.EOF exactly when it was cut on a record boundary.
func TestDecodeChunkingInvariant(t *testing.T) {
	for _, format := range []string{"pcap", "pcapng"} {
		t.Run(format, func(t *testing.T) {
			data := fuzzSeedCapture(format)
			ends := recordEnds(data)
			if ends[len(ends)-1] != len(data) {
				t.Fatalf("record ends %v do not reach the capture length %d", ends, len(data))
			}
			for cut := 0; cut <= len(data); cut++ {
				prefix := data[:cut]
				checkChunkings(t, prefix, oddSteps[cut%len(oddSteps)])
				got := decodeFrom(bytes.NewReader(prefix))
				if clean := got.err == io.EOF.Error(); clean != slices.Contains(ends, cut) {
					t.Fatalf("cut at %d of %d: error %q (record ends %v)", cut, len(data), got.err, ends)
				}
			}
		})
	}
}

// oversizedCapture writes a small record, one record whose caplen lies
// between the 256 KiB bufio window and MaxSnapLen, and two small records
// after it.
func oversizedCapture(t *testing.T, format string, bodyLen int) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewPacketWriter(&buf, format, LinkEthernet, 0)
	if err != nil {
		t.Fatal(err)
	}
	ts := time.Unix(1700000000, 0).UTC()
	for seq := uint32(1); seq <= 4; seq++ {
		frame := AppendFrame(nil, &FrameSpec{Src: testSrc, Dst: testDst, Seq: seq, Flags: FlagACK})
		if seq == 2 {
			// Ethernet trailer bytes past the IP datagram: the frame
			// still parses as the same small segment.
			frame = append(frame, make([]byte, bodyLen-len(frame))...)
		}
		if err := w.WritePacket(ts.Add(time.Duration(seq)*time.Millisecond), len(frame), frame); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestOversizedRecordCopyPath decodes a record larger than the reader's
// window: it must come through the copying path, and the records after
// it must decode from a resynchronized window. Cut inside that record,
// the capture must fail with the truncated-body error, not io.EOF.
func TestOversizedRecordCopyPath(t *testing.T) {
	const bodyLen = 300_000
	for _, format := range []string{"pcap", "pcapng"} {
		t.Run(format, func(t *testing.T) {
			data := oversizedCapture(t, format, bodyLen)
			rd, err := NewReader(bytes.NewReader(data))
			if err != nil {
				t.Fatal(err)
			}
			if bodyLen <= rd.br.Size() || bodyLen > MaxSnapLen {
				t.Fatalf("record of %d bytes does not lie between the %d-byte window and MaxSnapLen", bodyLen, rd.br.Size())
			}
			// Where the frame starts in a copied record: past the EPB's
			// fixed fields for pcapng.
			frameOff := 0
			if format == "pcapng" {
				frameOff = 20
			}
			var rec RawRecord
			for i := 1; i <= 4; i++ {
				if err := rd.NextRaw(&rec); err != nil {
					t.Fatalf("record %d: %v", i, err)
				}
				copied := len(rd.buf) > frameOff && &rec.Data[0] == &rd.buf[frameOff]
				if big := i == 2; copied != big || (big && rec.CapturedLen != bodyLen) {
					t.Fatalf("record %d: %d bytes, through the copy buffer %v", i, rec.CapturedLen, copied)
				}
				var pkt Packet
				pkt.Time = rec.Time
				if ParseFrame(rec.LinkType, rec.Data, &pkt) != FrameTCP || pkt.Seq != uint32(i) {
					t.Fatalf("record %d decoded as seq %d", i, pkt.Seq)
				}
			}
			if err := rd.NextRaw(&rec); err != io.EOF {
				t.Fatalf("after the last record: %v, want io.EOF", err)
			}

			d := decodeFrom(bytes.NewReader(data))
			if d.err != io.EOF.Error() || len(d.pkts) != 4 || d.pkts[1].CapturedLen != bodyLen {
				t.Fatalf("Next: %d packets, error %q", len(d.pkts), d.err)
			}
			checkChunkings(t, data, 4099)

			cut := data[:len(data)/2]
			rd, err = NewReader(bytes.NewReader(cut))
			if err != nil {
				t.Fatal(err)
			}
			var pkt Packet
			if err := rd.Next(&pkt); err != nil {
				t.Fatal(err)
			}
			want := map[string]string{"pcap": "pcap: truncated record body", "pcapng": "pcapng: truncated block body"}[format]
			err = rd.Next(&pkt)
			if !errors.Is(err, io.ErrUnexpectedEOF) || !strings.HasPrefix(err.Error(), want) {
				t.Fatalf("record cut inside its body: %v, want the truncated-body error", err)
			}
			checkChunkings(t, cut, 509)
		})
	}
}

// FuzzDecodeChunked decodes arbitrary bytes through every chunking source
// and requires identical packets, counters and error text: the reader's
// window must frame the same records whatever pieces the stream arrives
// in. step picks the step source's read size.
func FuzzDecodeChunked(f *testing.F) {
	for i, format := range []string{"pcap", "pcapng"} {
		seed := fuzzSeedCapture(format)
		f.Add(seed, uint8(i))
		f.Add(seed[:len(seed)-7], uint8(i+2))
	}
	f.Fuzz(func(t *testing.T, data []byte, step uint8) {
		checkChunkings(t, data, oddSteps[int(step)%len(oddSteps)])
	})
}
