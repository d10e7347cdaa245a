package pcap

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/bits"
)

// pcapng block types.
const (
	ngBlockIDB = 0x00000001 // interface description
	ngBlockSPB = 0x00000003 // simple packet
	ngBlockEPB = 0x00000006 // enhanced packet
)

// ngByteOrderMagic is the section byte-order marker inside an SHB.
const ngByteOrderMagic = 0x1a2b3c4d

// maxNGBlock bounds one pcapng block body: a packet plus generous room
// for options.
const maxNGBlock = MaxSnapLen + 4096

// maxNGInterfaces bounds the per-section interface table so a crafted
// stream of IDBs cannot grow memory without bound.
const maxNGInterfaces = 256

// nextNG reads one pcapng block; it returns (frame, linkType, nil) for a
// packet block, (nil, 0, nil) for a non-packet block, and io.EOF at the
// clean end of the stream.
func (r *Reader) nextNG(pkt *Packet) ([]byte, uint32, error) {
	hdr, err := r.take(8)
	if err != nil {
		if err == io.EOF {
			return nil, 0, io.EOF
		}
		return nil, 0, fmt.Errorf("pcapng: truncated block header: %w", noEOF(err))
	}
	// An SHB starts a new section whose endianness is only known from the
	// byte-order magic that follows, so its length field is handed over
	// raw (the type is palindromic, readable in either order).
	if binary.BigEndian.Uint32(hdr[0:4]) == ngBlockSHB {
		return nil, 0, r.readSHB(binary.BigEndian.Uint32(hdr[4:8]))
	}
	blockType := r.bo.Uint32(hdr[0:4])
	total := r.bo.Uint32(hdr[4:8])
	if total < 12 || total%4 != 0 || total > maxNGBlock {
		return nil, 0, fmt.Errorf("pcapng: block length %d out of range", total)
	}
	body, err := r.take(int(total) - 8)
	if err != nil {
		return nil, 0, fmt.Errorf("pcapng: truncated block body: %w", noEOF(err))
	}
	if trailer := r.bo.Uint32(body[len(body)-4:]); trailer != total {
		return nil, 0, fmt.Errorf("pcapng: block trailing length %d != %d", trailer, total)
	}
	body = body[:len(body)-4]
	switch blockType {
	case ngBlockIDB:
		return nil, 0, r.readIDB(body)
	case ngBlockEPB:
		return r.readEPB(body, pkt)
	case ngBlockSPB:
		return r.readSPB(body, pkt)
	default:
		return nil, 0, nil // name resolution, statistics, custom: skip
	}
}

// readSHB finishes parsing a section header block whose type and length
// were already taken; lenBE is the length field read big-endian, which
// the byte-order magic that follows may swap.
func (r *Reader) readSHB(lenBE uint32) error {
	magic, err := r.take(4)
	if err != nil {
		return fmt.Errorf("pcapng: truncated section header: %w", noEOF(err))
	}
	total := lenBE
	switch m := binary.BigEndian.Uint32(magic); m {
	case ngByteOrderMagic:
		r.bo = bigEndian
	case 0x4d3c2b1a:
		r.bo = littleEndian
		total = bits.ReverseBytes32(lenBE)
	default:
		return fmt.Errorf("pcapng: bad byte-order magic %#x", m)
	}
	if total < 28 || total%4 != 0 || total > maxNGBlock {
		return fmt.Errorf("pcapng: section header length %d out of range", total)
	}
	body, err := r.take(int(total) - 12)
	if err != nil {
		return fmt.Errorf("pcapng: truncated section header: %w", noEOF(err))
	}
	if trailer := r.bo.Uint32(body[len(body)-4:]); trailer != total {
		return fmt.Errorf("pcapng: section header trailing length %d != %d", trailer, total)
	}
	if major := r.bo.Uint16(body[0:2]); major != 1 {
		return fmt.Errorf("pcapng: unsupported version %d.%d", major, r.bo.Uint16(body[2:4]))
	}
	r.ifaces = r.ifaces[:0]
	r.sections++
	return nil
}

// readIDB parses an interface description block body (trailer stripped).
func (r *Reader) readIDB(body []byte) error {
	if len(body) < 8 {
		return fmt.Errorf("pcapng: interface block too short (%d bytes)", len(body))
	}
	if len(r.ifaces) >= maxNGInterfaces {
		return fmt.Errorf("pcapng: more than %d interfaces in one section", maxNGInterfaces)
	}
	iface := ngIface{
		linkType: uint32(r.bo.Uint16(body[0:2])),
		snapLen:  r.bo.Uint32(body[4:8]),
		tsPow10:  6, // default resolution: microseconds
		tsPow2:   -1,
	}
	// Walk options for if_tsresol (code 9).
	opts := body[8:]
	for len(opts) >= 4 {
		code := r.bo.Uint16(opts[0:2])
		olen := int(r.bo.Uint16(opts[2:4]))
		padded := (olen + 3) &^ 3
		if 4+padded > len(opts) {
			break // malformed options: keep what we have
		}
		if code == 0 {
			break
		}
		if code == 9 && olen == 1 {
			v := opts[4]
			if v&0x80 != 0 {
				iface.tsPow2 = int(v & 0x7f)
				iface.tsPow10 = -1
			} else {
				iface.tsPow10 = int(v)
			}
		}
		opts = opts[4+padded:]
	}
	r.ifaces = append(r.ifaces, iface)
	return nil
}

// readEPB parses an enhanced packet block body (trailer stripped).
func (r *Reader) readEPB(body []byte, pkt *Packet) ([]byte, uint32, error) {
	if len(body) < 20 {
		return nil, 0, fmt.Errorf("pcapng: packet block too short (%d bytes)", len(body))
	}
	ifID := r.bo.Uint32(body[0:4])
	if int(ifID) >= len(r.ifaces) {
		return nil, 0, fmt.Errorf("pcapng: packet references undeclared interface %d", ifID)
	}
	iface := r.ifaces[ifID]
	ts := uint64(r.bo.Uint32(body[4:8]))<<32 | uint64(r.bo.Uint32(body[8:12]))
	capLen := r.bo.Uint32(body[12:16])
	origLen := r.bo.Uint32(body[16:20])
	if capLen > MaxSnapLen || int(capLen) > len(body)-20 {
		return nil, 0, fmt.Errorf("pcapng: packet capture length %d out of range", capLen)
	}
	if capLen > origLen {
		return nil, 0, fmt.Errorf("pcapng: packet capture length %d exceeds original length %d", capLen, origLen)
	}
	pkt.UnixNano = ngTime(ts, iface)
	pkt.CapturedLen = int(capLen)
	pkt.OrigLen = int(origLen)
	return body[20 : 20+capLen], iface.linkType, nil
}

// readSPB parses a simple packet block body (trailer stripped): only the
// original length is recorded; the captured length is the lesser of the
// interface snaplen and the original length. SPBs carry no timestamp.
func (r *Reader) readSPB(body []byte, pkt *Packet) ([]byte, uint32, error) {
	if len(r.ifaces) == 0 {
		return nil, 0, fmt.Errorf("pcapng: simple packet block before any interface block")
	}
	if len(body) < 4 {
		return nil, 0, fmt.Errorf("pcapng: simple packet block too short (%d bytes)", len(body))
	}
	iface := r.ifaces[0]
	origLen := r.bo.Uint32(body[0:4])
	capLen := origLen
	if iface.snapLen > 0 && capLen > iface.snapLen {
		capLen = iface.snapLen
	}
	if capLen > MaxSnapLen || int(capLen) > len(body)-4 {
		return nil, 0, fmt.Errorf("pcapng: simple packet length %d out of range", capLen)
	}
	pkt.UnixNano = math.MinInt64
	pkt.CapturedLen = int(capLen)
	pkt.OrigLen = int(origLen)
	return body[4 : 4+capLen], iface.linkType, nil
}

// ngTime converts a pcapng timestamp in the interface's units to Unix
// nanoseconds, floor(ts * 1e9 / units), exactly (no float math) and
// saturating at math.MaxInt64, for every unit if_tsresol can declare:
// 2^-n and 10^-n s for n in 0..127.
func ngTime(ts uint64, iface ngIface) int64 {
	var hi, ns uint64 // the result's high and low 64 bits
	if iface.tsPow2 >= 0 {
		// ts * 1e9 >> n through the 128-bit product, which loses no
		// bits at any n.
		n := uint(iface.tsPow2)
		h, l := bits.Mul64(ts, 1e9)
		if n < 64 {
			hi, ns = h>>n, h<<(64-n)|l>>n
		} else {
			ns = h >> (n - 64)
		}
	} else if p := iface.tsPow10; p <= 9 {
		hi, ns = bits.Mul64(ts, pow10[9-p])
	} else if p-9 < len(pow10) {
		ns = ts / pow10[p-9] // beyond, every stamp is under 1 ns
	}
	if hi != 0 || ns > math.MaxInt64 {
		return math.MaxInt64
	}
	return int64(ns)
}

// pow10 holds every power of ten a uint64 holds.
var pow10 = [20]uint64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
	1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19}
