package pcap

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// Classic pcap magic numbers, as they appear in the first four file bytes.
const (
	magicMicros        = 0xa1b2c3d4
	magicMicrosSwapped = 0xd4c3b2a1
	magicNanos         = 0xa1b23c4d
	magicNanosSwapped  = 0x4d3cb2a1
	// ngBlockSHB is the pcapng section header block type, which doubles
	// as the file magic (the byte-order magic follows inside the block).
	ngBlockSHB = 0x0a0d0d0a
)

// Reader streams TCP segments out of a pcap or pcapng capture. Create
// with NewReader, then call Next until io.EOF. The reader holds one
// bounded buffer regardless of capture size. Not safe for concurrent use.
type Reader struct {
	// br is the byte source: it reads the capture straight into its
	// buffer, out of which take frames records in place.
	br *bufio.Reader
	// win is everything br had buffered at the last refill and off the
	// bytes of it already framed; take slices headers and bodies out of
	// win[off:] and only touches br when the next one does not fit.
	win []byte
	off int
	// buf is the copying path's buffer, for records larger than br's.
	buf   []byte
	ng    bool
	stats Stats
	// raw is the scratch packet NextRaw routes record metadata through.
	raw Packet

	// bo is the byte order of the classic file or of the current pcapng
	// section.
	bo endian

	// Classic pcap state.
	nanos    bool
	linkType uint32

	// pcapng per-section state.
	ifaces   []ngIface
	sections int
}

// endian is a capture byte order. Its methods branch on a concrete value,
// which is cheaper per record than calling through binary.ByteOrder.
type endian bool

const (
	littleEndian endian = false
	bigEndian    endian = true
)

func (e endian) Uint16(b []byte) uint16 {
	if e == bigEndian {
		return binary.BigEndian.Uint16(b)
	}
	return binary.LittleEndian.Uint16(b)
}

func (e endian) Uint32(b []byte) uint32 {
	if e == bigEndian {
		return binary.BigEndian.Uint32(b)
	}
	return binary.LittleEndian.Uint32(b)
}

// ngIface is one pcapng interface description: its link type and
// timestamp resolution.
type ngIface struct {
	linkType uint32
	snapLen  uint32
	// tsUnitsPow10 / tsUnitsPow2: exactly one is active. pow10 holds n for
	// 10^-n second units (default 6, microseconds); pow2 holds n for 2^-n
	// units when the high bit of if_tsresol was set (then pow10 < 0).
	tsPow10 int
	tsPow2  int
}

// NewReader sniffs the capture format from the first bytes of r and
// returns a streaming reader. It returns ErrFormat when r is neither
// pcap nor pcapng. r is read through a 256 KiB bufio.Reader, out of
// whose buffer records are framed in place.
func NewReader(r io.Reader) (*Reader, error) {
	rd := &Reader{br: bufio.NewReaderSize(r, 1<<18)}
	magic, err := rd.take(4)
	if err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, fmt.Errorf("%w: capture shorter than a file header", ErrFormat)
		}
		return nil, err
	}
	switch binary.BigEndian.Uint32(magic) {
	case magicMicros:
		rd.bo, rd.nanos = bigEndian, false
	case magicMicrosSwapped:
		rd.bo, rd.nanos = littleEndian, false
	case magicNanos:
		rd.bo, rd.nanos = bigEndian, true
	case magicNanosSwapped:
		rd.bo, rd.nanos = littleEndian, true
	case ngBlockSHB:
		rd.ng = true
		lenField, err := rd.take(4)
		if err != nil {
			return nil, fmt.Errorf("pcapng: truncated section header: %w", noEOF(err))
		}
		if err := rd.readSHB(binary.BigEndian.Uint32(lenField)); err != nil {
			return nil, err
		}
		return rd, nil
	default:
		return nil, ErrFormat
	}
	// Classic pcap: the remaining 20 header bytes.
	hdr, err := rd.take(20)
	if err != nil {
		return nil, fmt.Errorf("pcap: truncated file header: %w", noEOF(err))
	}
	major := rd.bo.Uint16(hdr[0:2])
	if major != 2 {
		return nil, fmt.Errorf("pcap: unsupported version %d.%d", major, rd.bo.Uint16(hdr[2:4]))
	}
	rd.linkType = rd.bo.Uint32(hdr[16:20])
	return rd, nil
}

// LinkType returns the capture's link type (for pcapng, the first
// interface's; 0 before any interface block was seen).
func (r *Reader) LinkType() uint32 {
	if r.ng {
		if len(r.ifaces) > 0 {
			return r.ifaces[0].linkType
		}
		return 0
	}
	return r.linkType
}

// Stats returns the running decode counters.
func (r *Reader) Stats() Stats { return r.stats }

// Next decodes capture records until it finds the next TCP segment, fills
// pkt with it, and returns nil. It returns io.EOF at the clean end of the
// capture and a descriptive error on malformed framing. Non-TCP and
// header-truncated records are counted in Stats and skipped.
func (r *Reader) Next(pkt *Packet) error {
	for {
		var (
			data     []byte
			linkType uint32
			err      error
		)
		if r.ng {
			data, linkType, err = r.nextNG(pkt)
		} else {
			data, linkType, err = r.nextClassic(pkt)
		}
		if err != nil {
			return err
		}
		if data == nil {
			continue // non-packet block (pcapng)
		}
		r.stats.Packets++
		switch parseFrame(linkType, data, pkt) {
		case parsedTCP:
			r.stats.TCP++
			return nil
		case parsedTruncated:
			r.stats.Truncated++
		default:
			r.stats.Skipped++
		}
	}
}

// RawRecord is one undecoded capture record: the frame bytes plus the
// per-record metadata the file framing carries. Data aliases the
// reader's reusable buffer and is only valid until the next Next or
// NextRaw call; callers that defer parsing must copy it.
type RawRecord struct {
	UnixNano    int64 // as Packet.UnixNano
	LinkType    uint32
	CapturedLen int
	OrigLen     int
	Data        []byte
}

// NextRaw reads the next packet record without decoding its frame,
// for pipelines that sniff or shard frames before parsing them (see
// TupleSniff). It advances only Stats.Packets; frame classification
// counters belong to whoever parses. Returns io.EOF at the clean end of
// the capture.
func (r *Reader) NextRaw(rec *RawRecord) error {
	for {
		var (
			data     []byte
			linkType uint32
			err      error
		)
		if r.ng {
			data, linkType, err = r.nextNG(&r.raw)
		} else {
			data, linkType, err = r.nextClassic(&r.raw)
		}
		if err != nil {
			return err
		}
		if data == nil {
			continue // non-packet block (pcapng)
		}
		r.stats.Packets++
		rec.UnixNano = r.raw.UnixNano
		rec.LinkType = linkType
		rec.CapturedLen = r.raw.CapturedLen
		rec.OrigLen = r.raw.OrigLen
		rec.Data = data
		return nil
	}
}

// nextClassic reads one classic-pcap record. The header and the body
// are sliced straight out of the window when they fit, with one length
// compare each (take costs too much to inline); only a piece that does
// not fit goes through refill, take's slow path.
func (r *Reader) nextClassic(pkt *Packet) ([]byte, uint32, error) {
	var hdr []byte
	if off := r.off; off+16 <= len(r.win) {
		hdr, r.off = r.win[off:off+16], off+16
	} else {
		var err error
		if hdr, err = r.refill(16); err != nil {
			if err == io.EOF {
				return nil, 0, io.EOF
			}
			return nil, 0, fmt.Errorf("pcap: truncated record header: %w", noEOF(err))
		}
	}
	// The fields are read before the body is taken: a refill for the
	// body may move the bytes hdr aliases.
	var sec, sub, capLen, origLen uint32
	_ = hdr[15]
	if r.bo == littleEndian {
		sec = binary.LittleEndian.Uint32(hdr[0:4])
		sub = binary.LittleEndian.Uint32(hdr[4:8])
		capLen = binary.LittleEndian.Uint32(hdr[8:12])
		origLen = binary.LittleEndian.Uint32(hdr[12:16])
	} else {
		sec = binary.BigEndian.Uint32(hdr[0:4])
		sub = binary.BigEndian.Uint32(hdr[4:8])
		capLen = binary.BigEndian.Uint32(hdr[8:12])
		origLen = binary.BigEndian.Uint32(hdr[12:16])
	}
	if capLen > MaxSnapLen {
		return nil, 0, fmt.Errorf("pcap: record capture length %d exceeds the %d-byte bound", capLen, MaxSnapLen)
	}
	if capLen > origLen {
		return nil, 0, fmt.Errorf("pcap: record capture length %d exceeds original length %d", capLen, origLen)
	}
	var data []byte
	if off, end := r.off, r.off+int(capLen); end <= len(r.win) {
		data, r.off = r.win[off:end], end
	} else {
		var err error
		if data, err = r.refill(int(capLen)); err != nil {
			return nil, 0, fmt.Errorf("pcap: truncated record body: %w", noEOF(err))
		}
	}
	if data == nil {
		// A zero-length body taken from an empty window (after the
		// copying path) is nil, which Next reads as a non-packet block.
		data = []byte{}
	}
	nanos := int64(sub)
	if !r.nanos {
		if sub > 999_999 {
			return nil, 0, fmt.Errorf("pcap: record microseconds field %d out of range", sub)
		}
		nanos *= 1000
	} else if sub > 999_999_999 {
		return nil, 0, fmt.Errorf("pcap: record nanoseconds field %d out of range", sub)
	}
	pkt.UnixNano = int64(sec)*1e9 + nanos
	pkt.CapturedLen = int(capLen)
	pkt.OrigLen = int(origLen)
	return data, r.linkType, nil
}

// take returns the next n stream bytes: the one framing primitive for
// file headers, record headers, pcapng blocks and record bodies. The
// bytes alias the reader's window (or, for a record larger than it,
// r.buf) and are valid until the next take. It returns io.EOF only
// when the stream ended before the first of the n bytes,
// io.ErrUnexpectedEOF when it ended after some of them.
func (r *Reader) take(n int) ([]byte, error) {
	if off := r.off; n <= len(r.win)-off {
		r.off = off + n
		return r.win[off : off+n], nil
	}
	return r.refill(n)
}

// refill is take's slow path: it hands the framed bytes back
// to bufio, which slides the unframed tail to the front of its 256 KiB
// buffer and reads behind it until n bytes are buffered, then re-slices
// the window over everything buffered. Records larger than the buffer
// are copied into r.buf instead, leaving the window empty.
func (r *Reader) refill(n int) ([]byte, error) {
	_, _ = r.br.Discard(r.off) // r.off <= Buffered(): cannot fail
	r.win, r.off = nil, 0
	if n > r.br.Size() {
		return r.readFull(n)
	}
	if _, err := r.br.Peek(n); err != nil {
		if err == io.EOF && r.br.Buffered() > 0 {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	r.win, _ = r.br.Peek(r.br.Buffered()) // n <= Buffered(): cannot fail
	r.off = n
	return r.win[:n], nil
}

// readFull is the copying path for a record larger than the window: it
// reads the n bytes from br into r.buf.
func (r *Reader) readFull(n int) ([]byte, error) {
	if cap(r.buf) < n {
		r.buf = make([]byte, n, n+1024)
	}
	r.buf = r.buf[:n]
	if _, err := io.ReadFull(r.br, r.buf); err != nil {
		return nil, err
	}
	return r.buf, nil
}

// noEOF converts a bare io.EOF into io.ErrUnexpectedEOF so mid-structure
// truncation is distinguishable from a clean end of file.
func noEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}
